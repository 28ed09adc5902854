//! Order statistics and the result line.

use wcbk_serve::Json;

/// Nearest-rank percentile of `values` (`q` in `[0, 1]`); `NaN` if empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Named metrics with units, in report order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_owned(), value, unit));
    }

    /// The final result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self, correct: bool, attempted: usize, failed: usize) -> String {
        let metrics = Json::Object(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Json::object(vec![("value", (*value).into()), ("unit", (*unit).into())]),
                    )
                })
                .collect(),
        );
        Json::object(vec![
            ("correct", correct.into()),
            ("attempted", attempted.into()),
            ("failed", failed.into()),
            ("metrics", metrics),
        ])
        .to_string()
    }
}
