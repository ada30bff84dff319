//! Timing and memory-accounting helpers shared by all indices and by the
//! experiment harness.
//!
//! Memory accounting is *analytic*: each structure reports the heap bytes it
//! would occupy based on the capacities of its vectors. This mirrors how the
//! paper reports index sizes (Table 3, Figure 9) and keeps the numbers
//! reproducible across platforms and allocators.

/// Heap bytes held by a `Vec<T>` (capacity-based, excluding `T`'s own heap).
pub fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// Heap bytes held by a `Vec<Vec<T>>` including the outer spine.
pub fn nested_vec_bytes<T>(v: &Vec<Vec<T>>) -> usize {
    vec_bytes(v) + v.iter().map(vec_bytes).sum::<usize>()
}

/// A labelled collection of memory measurements, convertible to a compact
/// human-readable report. Used by the harness to reproduce Table 3 and
/// Figure 9.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemoryReport {
    entries: Vec<(String, usize)>,
}

impl MemoryReport {
    /// An empty report.
    pub fn new() -> Self {
        MemoryReport::default()
    }

    /// Adds one labelled measurement (bytes).
    pub fn add(&mut self, label: impl Into<String>, bytes: usize) -> &mut Self {
        self.entries.push((label.into(), bytes));
        self
    }

    /// All measurements in insertion order.
    pub fn entries(&self) -> &[(String, usize)] {
        &self.entries
    }

    /// Total bytes across all measurements.
    pub fn total_bytes(&self) -> usize {
        self.entries.iter().map(|(_, b)| b).sum()
    }

    /// Total expressed in mebibytes.
    pub fn total_mib(&self) -> f64 {
        bytes_to_mib(self.total_bytes())
    }

    /// Renders the report as aligned `label: size` lines.
    pub fn render(&self) -> String {
        let width = self
            .entries
            .iter()
            .map(|(l, _)| l.len())
            .max()
            .unwrap_or(0)
            .max("total".len());
        let mut out = String::new();
        for (label, bytes) in &self.entries {
            out.push_str(&format!("{label:<width$}  {}\n", format_bytes(*bytes)));
        }
        out.push_str(&format!(
            "{:<width$}  {}\n",
            "total",
            format_bytes(self.total_bytes())
        ));
        out
    }
}

/// Converts bytes to mebibytes.
pub fn bytes_to_mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Human-readable byte count (`B`, `KiB`, `MiB`, `GiB`).
pub fn format_bytes(bytes: usize) -> String {
    const UNITS: [&str; 4] = ["B", "KiB", "MiB", "GiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.2} {}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_bytes_uses_capacity() {
        let mut v: Vec<u64> = Vec::with_capacity(16);
        v.push(1);
        assert_eq!(vec_bytes(&v), 16 * 8);
    }

    #[test]
    fn nested_vec_bytes_counts_inner_and_outer() {
        let v: Vec<Vec<u32>> = vec![Vec::with_capacity(4), Vec::with_capacity(8)];
        let expected = vec_bytes(&v) + 4 * 4 + 8 * 4;
        assert_eq!(nested_vec_bytes(&v), expected);
    }

    #[test]
    fn memory_report_totals_and_renders() {
        let mut r = MemoryReport::new();
        r.add("lists", 2 * 1024 * 1024)
            .add("histograms", 512 * 1024);
        assert_eq!(r.total_bytes(), 2 * 1024 * 1024 + 512 * 1024);
        assert!((r.total_mib() - 2.5).abs() < 1e-9);
        let text = r.render();
        assert!(text.contains("lists"));
        assert!(text.contains("total"));
    }

    #[test]
    fn format_bytes_picks_sensible_units() {
        assert_eq!(format_bytes(512), "512 B");
        assert_eq!(format_bytes(2048), "2.00 KiB");
        assert_eq!(format_bytes(3 * 1024 * 1024), "3.00 MiB");
        assert!(format_bytes(5 * 1024 * 1024 * 1024).contains("GiB"));
    }
}
