//! Counters, gauges, and log2 histograms behind a registry that renders
//! Prometheus text exposition format and a flat JSON object.
//!
//! Latencies land in logarithmic buckets (powers of two of microseconds),
//! recorded with relaxed atomics — cheap enough to run on every request.
//! Quantiles are *upper-bound* estimates from bucket edges: the reported
//! pXX is the upper edge of the bucket the rank falls into, so the true
//! quantile is never under-reported by more than one bucket width.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::trace::escape_json;

/// Number of log2 buckets: covers 1 µs … ~36 minutes.
pub const BUCKETS: usize = 32;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down, stored as `f64` bits.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Creates a zeroed gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A lock-free log2 latency histogram (microsecond buckets).
///
/// Bucket `i` holds observations in `[2^i, 2^(i+1))` µs, except bucket 0
/// which also absorbs sub-microsecond observations and the last bucket
/// which absorbs everything larger.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// The bucket index an observation of `micros` lands in.
    pub fn bucket_of_micros(micros: u64) -> usize {
        let micros = micros.max(1);
        (63 - micros.leading_zeros() as usize).min(BUCKETS - 1)
    }

    /// Upper edge (in microseconds) of bucket `i`: `2^(i+1)`.
    pub fn bucket_upper_micros(i: usize) -> u64 {
        1u64 << (i + 1)
    }

    /// Records one observation.
    pub fn record(&self, d: Duration) {
        self.record_micros(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Records one observation given directly in microseconds.
    pub fn record_micros(&self, micros: u64) {
        self.buckets[Self::bucket_of_micros(micros)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, in microseconds.
    pub fn sum_micros(&self) -> u64 {
        self.sum_micros.load(Ordering::Relaxed)
    }

    /// Snapshot of the raw bucket counts.
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for (o, b) in out.iter_mut().zip(&self.buckets) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// The value (in microseconds) at or below which `q` of observations
    /// fall — the upper edge of the bucket holding that rank. Zero when
    /// empty.
    pub fn quantile_us(&self, q: f64) -> f64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = (q * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper_micros(i) as f64;
            }
        }
        Self::bucket_upper_micros(BUCKETS - 1) as f64
    }

    /// [`quantile_us`](Histogram::quantile_us) converted to milliseconds.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.quantile_us(q) / 1000.0
    }
}

/// A value read at scrape time: a hot-path handle's current value, or a
/// closure over state another subsystem owns.
type Read<T> = Box<dyn Fn() -> T + Send + Sync>;

/// A value another subsystem owns, read at most once per render and
/// shared by every metric derived from it: one scrape then costs one
/// read (one lock sweep, say) per subsystem, and the metrics derived
/// from it all describe the same moment. Made by
/// [`Registry::per_scrape`]; metrics read it through
/// [`reader`](PerScrape::reader).
pub struct PerScrape<T> {
    /// The owning registry's render count.
    renders: Arc<AtomicU64>,
    read: Read<T>,
    /// The last value read, tagged with the render it was read for.
    cached: Mutex<Option<(u64, T)>>,
}

impl<T: Send + 'static> PerScrape<T> {
    /// Runs `f` on this render's value, reading it on first use.
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        let render = self.renders.load(Ordering::Relaxed);
        let mut cached = self.cached.lock().unwrap_or_else(|e| e.into_inner());
        match &*cached {
            Some((r, value)) if *r == render => f(value),
            _ => f(&cached.insert((render, (self.read)())).1),
        }
    }

    /// A metric reader over this render's value, for
    /// [`Registry::gauge_fn`] and friends.
    pub fn reader<R>(
        self: &Arc<Self>,
        read: impl Fn(&T) -> R + Send + Sync + 'static,
    ) -> impl Fn() -> R + Send + Sync + 'static {
        let this = Arc::clone(self);
        move || this.with(&read)
    }
}

/// The Prometheus type a metric declares.
#[derive(Clone, Copy)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// The shape of a metric's value: what both renderers format.
enum Value {
    /// One number (a counter or a gauge).
    Scalar(Read<f64>),
    /// A family sharing one name, one series per label value (e.g.
    /// `sns_reactor_conns{reactor="3"}`): one `# TYPE` block, one sample
    /// line per series, in the order the reader returns them.
    Family {
        label: &'static str,
        read: Read<Vec<(String, f64)>>,
    },
    Histogram(Arc<Histogram>),
    /// A constant info gauge: fixed labels, value always 1 (the
    /// `sns_build_info{version,git_sha}` idiom).
    Info(Vec<(&'static str, String)>),
}

struct Entry {
    name: &'static str,
    help: &'static str,
    kind: Kind,
    value: Value,
}

/// A set of named metrics, each declared once and rendered both as
/// Prometheus text exposition and as a flat JSON object.
///
/// Registration happens at startup. Hot-path metrics hand back an `Arc`
/// the recording site holds directly; values owned by another subsystem
/// register a closure ([`counter_fn`](Registry::counter_fn) and friends)
/// that is read at scrape time. Rendering walks the list in registration
/// order. Duplicate names are a bug and panic at registration.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
    /// Renders so far: the key [`PerScrape`] values are cached under.
    renders: Arc<AtomicU64>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn push(&self, name: &'static str, help: &'static str, kind: Kind, value: Value) {
        let mut entries = self.entries.lock().expect("registry lock");
        assert!(
            entries.iter().all(|e| e.name != name),
            "duplicate metric name {name}"
        );
        entries.push(Entry {
            name,
            help,
            kind,
            value,
        });
    }

    /// Registers a counter and returns the handle the hot path records on.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Arc<Counter> {
        let c = Arc::new(Counter::new());
        let read = Arc::clone(&c);
        self.counter_fn(name, help, move || read.get());
        c
    }

    /// Registers a gauge and returns its handle.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Arc<Gauge> {
        let g = Arc::new(Gauge::new());
        let read = Arc::clone(&g);
        self.gauge_fn(name, help, move || read.get());
        g
    }

    /// Registers a counter whose value another subsystem owns: `read` is
    /// called at scrape time and must never go backwards.
    pub fn counter_fn(
        &self,
        name: &'static str,
        help: &'static str,
        read: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        let read = Box::new(move || read() as f64);
        self.push(name, help, Kind::Counter, Value::Scalar(read));
    }

    /// Registers a gauge whose value another subsystem owns, read at
    /// scrape time.
    pub fn gauge_fn(
        &self,
        name: &'static str,
        help: &'static str,
        read: impl Fn() -> f64 + Send + Sync + 'static,
    ) {
        self.push(name, help, Kind::Gauge, Value::Scalar(Box::new(read)));
    }

    /// Registers a histogram and returns its handle.
    pub fn histogram(&self, name: &'static str, help: &'static str) -> Arc<Histogram> {
        let h = Arc::new(Histogram::new());
        self.push(
            name,
            help,
            Kind::Histogram,
            Value::Histogram(Arc::clone(&h)),
        );
        h
    }

    /// Registers a labeled gauge family with fixed label values and
    /// returns one handle per value, in order.
    pub fn gauge_vec(
        &self,
        name: &'static str,
        help: &'static str,
        label: &'static str,
        values: impl IntoIterator<Item = String>,
    ) -> Vec<Arc<Gauge>> {
        let slots: Vec<(String, Arc<Gauge>)> = values
            .into_iter()
            .map(|v| (v, Arc::new(Gauge::new())))
            .collect();
        let handles = slots.iter().map(|(_, g)| Arc::clone(g)).collect();
        self.gauge_vec_fn(name, help, label, move || {
            slots.iter().map(|(v, g)| (v.clone(), g.get())).collect()
        });
        handles
    }

    /// Registers a labeled counter family with fixed label values; see
    /// [`gauge_vec`](Registry::gauge_vec).
    pub fn counter_vec(
        &self,
        name: &'static str,
        help: &'static str,
        label: &'static str,
        values: impl IntoIterator<Item = String>,
    ) -> Vec<Arc<Counter>> {
        let slots: Vec<(String, Arc<Counter>)> = values
            .into_iter()
            .map(|v| (v, Arc::new(Counter::new())))
            .collect();
        let handles = slots.iter().map(|(_, c)| Arc::clone(c)).collect();
        self.counter_vec_fn(name, help, label, move || {
            slots.iter().map(|(v, c)| (v.clone(), c.get())).collect()
        });
        handles
    }

    /// Registers a labeled gauge family read at scrape time: `read`
    /// returns the current `(label value, value)` series, so series
    /// appear and disappear with the things they describe (replication
    /// peers connecting and leaving).
    pub fn gauge_vec_fn(
        &self,
        name: &'static str,
        help: &'static str,
        label: &'static str,
        read: impl Fn() -> Vec<(String, f64)> + Send + Sync + 'static,
    ) {
        let read = Box::new(read);
        self.push(name, help, Kind::Gauge, Value::Family { label, read });
    }

    /// Registers a labeled counter family read at scrape time; see
    /// [`gauge_vec_fn`](Registry::gauge_vec_fn).
    pub fn counter_vec_fn(
        &self,
        name: &'static str,
        help: &'static str,
        label: &'static str,
        read: impl Fn() -> Vec<(String, u64)> + Send + Sync + 'static,
    ) {
        let read = Box::new(move || read().into_iter().map(|(v, n)| (v, n as f64)).collect());
        self.push(name, help, Kind::Counter, Value::Family { label, read });
    }

    /// Registers a constant *info* gauge: a single sample with the given
    /// label set and a fixed value of 1, identifying the binary under
    /// test (`sns_build_info{version="0.1.0",git_sha="abc1234"} 1`).
    pub fn info(
        &self,
        name: &'static str,
        help: &'static str,
        labels: impl IntoIterator<Item = (&'static str, String)>,
    ) {
        let labels = labels.into_iter().collect();
        self.push(name, help, Kind::Gauge, Value::Info(labels));
    }

    /// Declares a value another subsystem owns that several metrics
    /// derive from: `read` runs at most once per render, on first use.
    pub fn per_scrape<T: Send + 'static>(
        &self,
        read: impl Fn() -> T + Send + Sync + 'static,
    ) -> Arc<PerScrape<T>> {
        Arc::new(PerScrape {
            renders: Arc::clone(&self.renders),
            read: Box::new(read),
            cached: Mutex::new(None),
        })
    }

    /// Visits every entry in registration order: the one walk both
    /// renderers share. Readers run under the registry lock, so they must
    /// not register metrics. Renders are serialized by that lock, so
    /// every [`PerScrape`] value read during one walk is read once.
    fn walk(&self, mut visit: impl FnMut(&Entry)) {
        let entries = self.entries.lock().expect("registry lock");
        self.renders.fetch_add(1, Ordering::Relaxed);
        for e in entries.iter() {
            visit(e);
        }
    }

    /// Renders the whole registry as Prometheus text exposition format
    /// (`text/plain; version=0.0.4`). Histogram buckets are cumulative
    /// with `le` edges in microseconds.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        self.walk(|e| {
            let name = e.name;
            let _ = writeln!(out, "# HELP {name} {}", e.help);
            let _ = writeln!(out, "# TYPE {name} {}", e.kind.as_str());
            match &e.value {
                Value::Scalar(read) => {
                    let _ = writeln!(out, "{name} {}", format_f64(read()));
                }
                Value::Family { label, read } => {
                    for (value, v) in read() {
                        let _ = writeln!(out, "{name}{{{label}=\"{value}\"}} {}", format_f64(v));
                    }
                }
                Value::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (i, c) in h.bucket_counts().iter().enumerate() {
                        cumulative += c;
                        let le = Histogram::bucket_upper_micros(i);
                        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                    let _ = writeln!(out, "{name}_sum {}", h.sum_micros());
                    let _ = writeln!(out, "{name}_count {}", h.count());
                }
                Value::Info(labels) => {
                    let rendered: Vec<String> =
                        labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
                    let _ = writeln!(out, "{name}{{{}}} 1", rendered.join(","));
                }
            }
        });
        out
    }

    /// Renders the whole registry as one flat JSON object. Every key
    /// comes from the metric's name by one rule:
    ///
    /// * strip `prefix` and a `_total` suffix;
    /// * a counter or gauge is a number;
    /// * a histogram becomes two upper-bound quantiles in milliseconds,
    ///   `<key minus _us>_p50_ms` and `<key minus _us>_p99_ms`;
    /// * a labeled family is an object keyed by label value;
    /// * an info metric is an object of its labels.
    pub fn render_json(&self, prefix: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{");
        self.walk(|e| {
            let key = e.name.strip_prefix(prefix).unwrap_or(e.name);
            let key = key.strip_suffix("_total").unwrap_or(key);
            if out.len() > 1 {
                out.push(',');
            }
            match &e.value {
                Value::Scalar(read) => {
                    let _ = write!(out, "\"{key}\":{}", json_num(read()));
                }
                Value::Family { read, .. } => {
                    let series: Vec<String> = read()
                        .into_iter()
                        .map(|(value, v)| format!("\"{}\":{}", escape_json(&value), json_num(v)))
                        .collect();
                    let _ = write!(out, "\"{key}\":{{{}}}", series.join(","));
                }
                Value::Histogram(h) => {
                    let base = key.strip_suffix("_us").unwrap_or(key);
                    let _ = write!(
                        out,
                        "\"{base}_p50_ms\":{},\"{base}_p99_ms\":{}",
                        json_num(h.quantile_ms(0.50)),
                        json_num(h.quantile_ms(0.99))
                    );
                }
                Value::Info(labels) => {
                    let rendered: Vec<String> = labels
                        .iter()
                        .map(|(k, v)| format!("\"{k}\":\"{}\"", escape_json(v)))
                        .collect();
                    let _ = write!(out, "\"{key}\":{{{}}}", rendered.join(","));
                }
            }
        });
        out.push('}');
        out
    }
}

/// Prometheus floats: plain decimal, no exponent for the magnitudes we
/// emit; integral values render without a fraction.
fn format_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// JSON numbers: as [`format_f64`], except JSON has no NaN or infinity.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format_f64(v)
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names declared by the `# TYPE` lines of `text`, in order.
    fn type_lines(text: &str) -> Vec<&str> {
        text.lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .filter_map(|l| l.split(' ').next())
            .collect()
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // Bucket i covers [2^i, 2^(i+1)) µs; sub-µs observations clamp
        // into bucket 0 and the last bucket absorbs the tail.
        assert_eq!(Histogram::bucket_of_micros(0), 0);
        assert_eq!(Histogram::bucket_of_micros(1), 0);
        assert_eq!(Histogram::bucket_of_micros(2), 1);
        assert_eq!(Histogram::bucket_of_micros(3), 1);
        assert_eq!(Histogram::bucket_of_micros(4), 2);
        assert_eq!(Histogram::bucket_of_micros(1023), 9);
        assert_eq!(Histogram::bucket_of_micros(1024), 10);
        assert_eq!(Histogram::bucket_of_micros(u64::MAX), BUCKETS - 1);
        assert_eq!(Histogram::bucket_upper_micros(0), 2);
        assert_eq!(Histogram::bucket_upper_micros(9), 1024);
    }

    #[test]
    fn quantiles_estimate_at_bucket_upper_edges() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record_micros(100); // Bucket 6: [64, 128).
        }
        h.record_micros(50_000); // Bucket 15: [32768, 65536).
        assert_eq!(h.count(), 100);
        // p50 and p99 fall in the 100 µs bucket, whose upper edge is 128.
        assert_eq!(h.quantile_us(0.50), 128.0);
        assert_eq!(h.quantile_us(0.99), 128.0);
        // p100 lands in the slow bucket: upper edge 65536 µs.
        assert_eq!(h.quantile_us(1.0), 65536.0);
        assert_eq!(h.quantile_ms(1.0), 65.536);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile_us(0.5), 0.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn record_duration_matches_micros() {
        let h = Histogram::new();
        h.record(Duration::from_micros(100));
        h.record_micros(100);
        let counts = h.bucket_counts();
        assert_eq!(counts[6], 2);
        assert_eq!(h.sum_micros(), 200);
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let reg = Registry::new();
        let c = reg.counter("t_requests_total", "Requests served.");
        let g = reg.gauge("t_conns_open", "Open connections.");
        let h = reg.histogram("t_latency_us", "Latency.");
        c.add(3);
        g.set(2.5);
        h.record_micros(100);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE t_requests_total counter"));
        assert!(text.contains("t_requests_total 3"));
        assert!(text.contains("# TYPE t_conns_open gauge"));
        assert!(text.contains("t_conns_open 2.5"));
        assert!(text.contains("# TYPE t_latency_us histogram"));
        assert!(text.contains("t_latency_us_bucket{le=\"128\"} 1"));
        assert!(text.contains("t_latency_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("t_latency_us_sum 100"));
        assert!(text.contains("t_latency_us_count 1"));
        // Buckets are cumulative: every later edge also reports 1.
        assert!(text.contains("t_latency_us_bucket{le=\"256\"} 1"));
        assert_eq!(
            type_lines(&text),
            ["t_requests_total", "t_conns_open", "t_latency_us"]
        );
    }

    #[test]
    fn labeled_families_render_under_one_type_block() {
        let reg = Registry::new();
        let gauges = reg.gauge_vec(
            "t_reactor_conns",
            "Connections per reactor.",
            "reactor",
            (0..2).map(|i| i.to_string()),
        );
        let counters = reg.counter_vec(
            "t_reactor_wakes_total",
            "Wakes per reactor.",
            "reactor",
            (0..2).map(|i| i.to_string()),
        );
        gauges[0].set(5.0);
        gauges[1].set(7.5);
        counters[1].add(3);
        let text = reg.render_prometheus();
        assert_eq!(text.matches("# TYPE t_reactor_conns gauge").count(), 1);
        assert!(text.contains("t_reactor_conns{reactor=\"0\"} 5"));
        assert!(text.contains("t_reactor_conns{reactor=\"1\"} 7.5"));
        assert_eq!(
            text.matches("# TYPE t_reactor_wakes_total counter").count(),
            1
        );
        assert!(text.contains("t_reactor_wakes_total{reactor=\"0\"} 0"));
        assert!(text.contains("t_reactor_wakes_total{reactor=\"1\"} 3"));
        // The family is one name for the doc-drift gate.
        assert_eq!(
            type_lines(&text),
            ["t_reactor_conns", "t_reactor_wakes_total"]
        );
    }

    #[test]
    fn dynamic_gauge_families_create_and_drop_series() {
        let reg = Registry::new();
        let peers: Arc<Mutex<Vec<(String, f64)>>> = Arc::default();
        let read = Arc::clone(&peers);
        reg.gauge_vec_fn("t_follower_lag", "Lag per peer.", "peer", move || {
            read.lock().expect("peers lock").clone()
        });
        *peers.lock().unwrap() = vec![
            ("10.0.0.2:9090".to_string(), 7.0),
            ("10.0.0.3:9090".to_string(), 0.0),
        ];
        let text = reg.render_prometheus();
        assert_eq!(text.matches("# TYPE t_follower_lag gauge").count(), 1);
        assert!(text.contains("t_follower_lag{peer=\"10.0.0.2:9090\"} 7"));
        assert!(text.contains("t_follower_lag{peer=\"10.0.0.3:9090\"} 0"));
        // A peer that left is gone from the next scrape.
        peers.lock().unwrap().remove(0);
        let text = reg.render_prometheus();
        assert!(!text.contains("10.0.0.2"), "{text}");
        assert!(text.contains("t_follower_lag{peer=\"10.0.0.3:9090\"} 0"));
        // An empty family still declares its type (scrapers and the
        // doc-drift gate see the name before any peer connects).
        peers.lock().unwrap().clear();
        assert_eq!(type_lines(&reg.render_prometheus()), ["t_follower_lag"]);
    }

    #[test]
    fn closure_metrics_are_read_at_scrape_time() {
        let reg = Registry::new();
        let owned = Arc::new(AtomicU64::new(3));
        let read = Arc::clone(&owned);
        reg.counter_fn("t_owned_total", "Owned elsewhere.", move || {
            read.load(Ordering::Relaxed)
        });
        reg.gauge_fn("t_half", "A gauge.", || 0.5);
        assert!(reg.render_prometheus().contains("t_owned_total 3\n"));
        owned.store(9, Ordering::Relaxed);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE t_owned_total counter"), "{text}");
        assert!(text.contains("t_owned_total 9\n"), "{text}");
        assert!(text.contains("# TYPE t_half gauge"), "{text}");
        assert!(text.contains("t_half 0.5\n"), "{text}");
    }

    #[test]
    fn per_scrape_values_are_read_once_per_render() {
        let reg = Registry::new();
        let reads = Arc::new(AtomicU64::new(0));
        let counted = Arc::clone(&reads);
        let snap = reg.per_scrape(move || (counted.fetch_add(1, Ordering::Relaxed) + 1) * 10);
        reg.gauge_fn("t_a", "First.", snap.reader(|v| *v as f64));
        reg.counter_fn("t_b_total", "Second.", snap.reader(|v| *v + 1));
        let text = reg.render_prometheus();
        assert!(text.contains("t_a 10\n"), "{text}");
        assert!(text.contains("t_b_total 11\n"), "{text}");
        assert_eq!(reads.load(Ordering::Relaxed), 1, "one read per render");
        assert_eq!(reg.render_json("t_"), "{\"a\":20,\"b\":21}");
        assert_eq!(reads.load(Ordering::Relaxed), 2, "each render reads afresh");
    }

    #[test]
    fn json_rendering_follows_the_key_rule() {
        let reg = Registry::new();
        reg.counter("t_requests_total", "Requests.").add(4);
        reg.gauge("t_ratio", "A ratio.").set(0.25);
        reg.gauge_fn("t_broken", "Not a number.", || f64::NAN);
        let h = reg.histogram("t_stage_fsync_us", "Latency.");
        for _ in 0..99 {
            h.record_micros(100);
        }
        h.record_micros(50_000);
        reg.counter_vec(
            "t_fallback_total",
            "By reason.",
            "reason",
            ["escaped", "structural"].map(String::from),
        )[1]
        .inc();
        reg.info(
            "t_build_info",
            "Build.",
            [("version", "0.1.0\"".to_string())],
        );
        assert_eq!(
            reg.render_json("t_"),
            "{\"requests\":4,\"ratio\":0.25,\"broken\":null,\
             \"stage_fsync_p50_ms\":0.128,\"stage_fsync_p99_ms\":0.128,\
             \"fallback\":{\"escaped\":0,\"structural\":1},\
             \"build_info\":{\"version\":\"0.1.0\\\"\"}}"
        );
        assert_eq!(Registry::new().render_json("t_"), "{}");
    }

    #[test]
    fn info_gauge_renders_fixed_labels_and_one() {
        let reg = Registry::new();
        reg.info(
            "t_build_info",
            "Build identity.",
            [
                ("version", "0.1.0".to_string()),
                ("git_sha", "abc1234".to_string()),
            ],
        );
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE t_build_info gauge"));
        assert!(text.contains("t_build_info{version=\"0.1.0\",git_sha=\"abc1234\"} 1"));
        assert_eq!(type_lines(&text), ["t_build_info"]);
    }

    #[test]
    #[should_panic(expected = "duplicate metric name")]
    fn duplicate_names_panic() {
        let reg = Registry::new();
        let _a = reg.counter("dup", "a");
        let _b = reg.counter("dup", "b");
    }
}
