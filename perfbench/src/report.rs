//! Metrics, the human-readable report, and the final JSON line.

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64) -> Self {
        Self {
            name: name.to_string(),
            unit,
            value,
        }
    }
}

/// What one run measured.
pub struct Outcome {
    /// Checked operations attempted, and those that errored or returned
    /// a wrong result.
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced run), all on every workload.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced run), all on every workload.
    pub layers: Vec<Metric>,
    /// Metrics that exist only on some workloads: reported, not in the
    /// JSON line.
    pub extras: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64) -> Self {
        Self {
            attempted,
            failed,
            e2e: Vec::new(),
            layers: Vec::new(),
            extras: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn e2e(&mut self, m: Metric) {
        self.e2e.push(m);
    }

    pub fn layer(&mut self, m: Metric) {
        self.layers.push(m);
    }

    pub fn extra(&mut self, m: Metric) {
        self.extras.push(m);
    }

    pub fn extra_if(&mut self, present: bool, m: Metric) {
        if present {
            self.extras.push(m);
        }
    }

    /// The report: one `metric` line per measurement, the notes, and last
    /// the JSON object with the end-to-end (untraced) or per-layer
    /// (traced) metrics.
    pub fn render(&self, workload: &str, trace: bool) -> String {
        let mut out = String::new();
        let main = if trace { &self.layers } else { &self.e2e };
        for m in main.iter().chain(&self.extras) {
            out.push_str(&format!(
                "metric {workload} {} = {} {}\n",
                m.name, m.value, m.unit
            ));
        }
        out.push_str(&format!(
            "checked {} operations, {} failed\n",
            self.attempted, self.failed
        ));
        for n in &self.notes {
            out.push_str(&format!("note {n}\n"));
        }
        let metrics: Vec<String> = main
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ));
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives. Every metric is finite by construction; anything else is a bug,
/// and the run ends before it prints a result.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}
