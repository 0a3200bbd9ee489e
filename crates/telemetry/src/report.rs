//! Snapshot report: span/counter/gauge rows plus the JSON and tree sinks.

use crate::json::{write_f64, write_str, Parser};

/// Aggregate for one span path.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRow {
    /// `/`-joined stack of span names, e.g. `mso/iter/cg`.
    pub path: String,
    /// Number of times this exact path was entered and exited.
    pub count: u64,
    /// Total wall-clock nanoseconds across all entries.
    pub total_ns: u64,
    /// Median duration of one entry, nanoseconds (within the
    /// [`crate::Histogram`] error bound of 1/64).
    pub p50_ns: u64,
    /// 99th-percentile duration of one entry, nanoseconds (same bound).
    pub p99_ns: u64,
    /// Longest single entry, nanoseconds (exact).
    pub max_ns: u64,
}

/// Snapshot of one counter.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterRow {
    /// Counter name, e.g. `autograd.pool.hits`.
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// Snapshot of one gauge.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeRow {
    /// Gauge name, e.g. `autograd.cg.last_residual`.
    pub name: String,
    /// Last stored value.
    pub value: f64,
}

/// A point-in-time snapshot of all metrics, produced by [`crate::report`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsReport {
    /// Span aggregates sorted by path.
    pub spans: Vec<SpanRow>,
    /// Counters sorted by name.
    pub counters: Vec<CounterRow>,
    /// Gauges sorted by name.
    pub gauges: Vec<GaugeRow>,
}

impl MetricsReport {
    /// The span row for `path`, if recorded.
    pub fn span(&self, path: &str) -> Option<&SpanRow> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// The counter row for `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<&CounterRow> {
        self.counters.iter().find(|c| c.name == name)
    }

    /// The gauge row for `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<&GaugeRow> {
        self.gauges.iter().find(|g| g.name == name)
    }

    /// Serializes to the machine-readable JSON schema:
    ///
    /// ```json
    /// {
    ///   "spans":    [{"path": "...", "count": 1, "total_ns": 123,
    ///                 "p50_ns": 123, "p99_ns": 123, "max_ns": 123}],
    ///   "counters": [{"name": "...", "value": 42}],
    ///   "gauges":   [{"name": "...", "value": 0.5}]
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\n  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    {\"path\": ");
            write_str(&mut out, &s.path);
            out.push_str(&format!(
                ", \"count\": {}, \"total_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}",
                s.count, s.total_ns, s.p50_ns, s.p99_ns, s.max_ns
            ));
        }
        out.push_str("\n  ],\n  \"counters\": [");
        for (i, c) in self.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    {\"name\": ");
            write_str(&mut out, &c.name);
            out.push_str(&format!(", \"value\": {}}}", c.value));
        }
        out.push_str("\n  ],\n  \"gauges\": [");
        for (i, g) in self.gauges.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    {\"name\": ");
            write_str(&mut out, &g.name);
            out.push_str(", \"value\": ");
            write_f64(&mut out, g.value);
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parses the schema emitted by [`Self::to_json`] without serde.
    pub fn from_json(input: &str) -> Result<Self, String> {
        let mut p = Parser::new(input);
        let mut report = MetricsReport::default();
        p.expect(b'{')?;
        if !p.eat(b'}') {
            loop {
                let key = p.string()?;
                p.expect(b':')?;
                p.expect(b'[')?;
                if !p.eat(b']') {
                    loop {
                        match key.as_str() {
                            "spans" => report.spans.push(parse_span(&mut p)?),
                            "counters" => report.counters.push(parse_counter(&mut p)?),
                            "gauges" => report.gauges.push(parse_gauge(&mut p)?),
                            other => return Err(format!("unknown section {other:?}")),
                        }
                        if !p.eat(b',') {
                            p.expect(b']')?;
                            break;
                        }
                    }
                }
                if !p.eat(b',') {
                    p.expect(b'}')?;
                    break;
                }
            }
        }
        if !p.at_end() {
            return Err("trailing content after report".into());
        }
        Ok(report)
    }

    /// Renders the human-readable tree summary: spans indented by depth with
    /// counts, total milliseconds and the p50/p99/max of one entry, followed
    /// by counters and gauges.
    pub fn render_tree(&self) -> String {
        let mut out = String::from("telemetry summary\n");
        if self.spans.is_empty() {
            out.push_str("  (no spans recorded)\n");
        }
        for s in &self.spans {
            let depth = s.path.matches('/').count();
            let name = s.path.rsplit('/').next().unwrap_or(&s.path);
            let ms = |ns: u64| ns as f64 / 1.0e6;
            out.push_str(&format!(
                "  {:indent$}{name}  count={}  total={:.3}ms  p50={:.3}ms  p99={:.3}ms  max={:.3}ms\n",
                "",
                s.count,
                ms(s.total_ns),
                ms(s.p50_ns),
                ms(s.p99_ns),
                ms(s.max_ns),
                indent = depth * 2,
            ));
        }
        if !self.counters.is_empty() {
            out.push_str("counters\n");
            for c in &self.counters {
                out.push_str(&format!("  {} = {}\n", c.name, c.value));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges\n");
            for g in &self.gauges {
                out.push_str(&format!("  {} = {}\n", g.name, g.value));
            }
        }
        out
    }
}

fn parse_span(p: &mut Parser<'_>) -> Result<SpanRow, String> {
    let mut row =
        SpanRow { path: String::new(), count: 0, total_ns: 0, p50_ns: 0, p99_ns: 0, max_ns: 0 };
    parse_object(p, |key, p| {
        match key {
            "path" => row.path = p.string()?,
            "count" => row.count = p.unsigned()?,
            "total_ns" => row.total_ns = p.unsigned()?,
            "p50_ns" => row.p50_ns = p.unsigned()?,
            "p99_ns" => row.p99_ns = p.unsigned()?,
            "max_ns" => row.max_ns = p.unsigned()?,
            other => return Err(format!("unknown span field {other:?}")),
        }
        Ok(())
    })?;
    Ok(row)
}

fn parse_counter(p: &mut Parser<'_>) -> Result<CounterRow, String> {
    let mut row = CounterRow { name: String::new(), value: 0 };
    parse_object(p, |key, p| {
        match key {
            "name" => row.name = p.string()?,
            "value" => row.value = p.unsigned()?,
            other => return Err(format!("unknown counter field {other:?}")),
        }
        Ok(())
    })?;
    Ok(row)
}

fn parse_gauge(p: &mut Parser<'_>) -> Result<GaugeRow, String> {
    let mut row = GaugeRow { name: String::new(), value: 0.0 };
    parse_object(p, |key, p| {
        match key {
            "name" => row.name = p.string()?,
            "value" => row.value = p.number()?,
            other => return Err(format!("unknown gauge field {other:?}")),
        }
        Ok(())
    })?;
    Ok(row)
}

fn parse_object(
    p: &mut Parser<'_>,
    mut field: impl FnMut(&str, &mut Parser<'_>) -> Result<(), String>,
) -> Result<(), String> {
    p.expect(b'{')?;
    if p.eat(b'}') {
        return Ok(());
    }
    loop {
        let key = p.string()?;
        p.expect(b':')?;
        field(&key, p)?;
        if !p.eat(b',') {
            p.expect(b'}')?;
            return Ok(());
        }
    }
}
