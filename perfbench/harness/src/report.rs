//! Minimal JSON rendering and the benchmark's own span recorder.

use std::time::Instant;

/// A JSON number; non-finite values render as `null`.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON object from already-rendered values.
pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("{}:{v}", string(k))).collect();
    format!("{{{}}}", body.join(","))
}

/// A JSON array from already-rendered values.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

/// A JSON array of numbers.
pub fn numbers(xs: &[f64]) -> String {
    array(xs.iter().map(|&x| num(x)))
}

/// Median of `xs` (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

struct Span {
    name: String,
    job: String,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
}

/// Spans the benchmark records around its own calls into each layer:
/// name, start, end, parent and job id, kept in memory and written out once
/// at the end of the run.
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans { t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &str, job: &str) -> usize {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.into(),
            job: job.into(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one) and returns its length in
    /// seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end = self.now_us();
        self.spans[id].end_us = end;
        (end - self.spans[id].start_us) * 1e-6
    }

    /// Times `f` under a span and returns its result with the seconds taken.
    pub fn time<T>(&mut self, name: &str, job: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name, job);
        let out = f();
        (out, self.close(id))
    }

    pub fn to_json(&self) -> String {
        array(self.spans.iter().map(|s| {
            object(&[
                ("name", string(&s.name)),
                ("job", string(&s.job)),
                ("start_us", num(s.start_us.round())),
                ("end_us", num(s.end_us.round())),
                ("parent", s.parent.map_or("null".into(), |p| p.to_string())),
            ])
        }))
    }
}
