//! Order statistics and the per-layer sample store.

use std::collections::BTreeMap;

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`); NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn geomean(values: &[f64]) -> f64 {
    let n = values.len().max(1) as f64;
    (values.iter().map(|v| v.ln()).sum::<f64>() / n).exp()
}

/// How a per-layer metric's samples reduce to the reported value.
#[derive(Debug, Clone, Copy)]
pub enum Reduce {
    Median,
    /// Counts: the mean per sample (e.g. per execution).
    Mean,
}

/// Samples of every per-layer metric, keyed by metric name.
#[derive(Debug, Default)]
pub struct Samples {
    by_name: BTreeMap<&'static str, Vec<f64>>,
}

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.by_name.entry(name).or_default().push(value);
    }

    pub fn extend(&mut self, name: &'static str, values: impl IntoIterator<Item = f64>) {
        self.by_name.entry(name).or_default().extend(values);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.by_name.get(name).map_or(&[], |v| v.as_slice())
    }

    pub fn reduce(&self, name: &str, how: Reduce) -> (f64, usize) {
        let v = self.get(name);
        let value = match how {
            Reduce::Median => median(v),
            Reduce::Mean if v.is_empty() => f64::NAN,
            Reduce::Mean => v.iter().sum::<f64>() / v.len() as f64,
        };
        (value, v.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
