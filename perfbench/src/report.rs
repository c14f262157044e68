//! Order statistics and a minimal JSON value, so the benchmark needs no
//! crate beyond the one it measures.

use std::fmt::Write;

/// Quantile `q` in `[0, 1]` of unsorted samples, interpolating linearly
/// between order statistics. `NaN` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The tail reported as `tail_ms`, with a label naming it: the p99 of
/// every op, or the p90 below 1000 ops.
pub fn tail(ms: &[f64]) -> (f64, String) {
    let (q, name) = if ms.len() < 1000 {
        (0.90, "p90")
    } else {
        (0.99, "p99")
    };
    (quantile(ms, q), format!("{name} of {} ops", ms.len()))
}

/// A JSON value.
#[derive(Debug, Clone)]
pub enum Json {
    Num(f64),
    Bool(bool),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            // Rust's shortest round-trip formatting keeps every digit.
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Str(s) => {
                out.push('"');
                for ch in s.chars() {
                    match ch {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    Json::Str(k.clone()).write(out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_is_p90_below_1000_ops_and_p99_from_there() {
        let ms: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&ms), (quantile(&ms, 0.9), "p90 of 100 ops".into()));
        let ms: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&ms), (quantile(&ms, 0.99), "p99 of 1000 ops".into()));
    }

    #[test]
    fn json_renders_escapes_and_non_finite() {
        let j = Json::obj([
            ("a", Json::Num(1.5)),
            ("b", Json::str("x\"y")),
            ("c", Json::Num(f64::NAN)),
            ("d", Json::Arr(vec![Json::Bool(true)])),
        ]);
        assert_eq!(
            j.render(),
            r#"{"a": 1.5, "b": "x\"y", "c": null, "d": [true]}"#
        );
    }
}
