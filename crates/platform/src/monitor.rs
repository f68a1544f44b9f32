//! The monitor: the final report shown "on the screen of the user's
//! PC".
//!
//! [`Monitor`] assembles named report sections (device inventories,
//! traffic statistics, congestion tables) into the plain-text final
//! report that ends every emulation flow. It is deliberately dumb —
//! content comes from the engines; this keeps the platform crate free
//! of statistics dependencies.

use crate::bus::AddressMap;
use nocem_common::table::TextTable;

/// Assembler for the end-of-run report.
///
/// # Examples
///
/// ```
/// use nocem_platform::monitor::Monitor;
///
/// let mut m = Monitor::new("demo run");
/// m.section("Traffic", "4 TGs at 45% offered load");
/// let report = m.render();
/// assert!(report.contains("demo run"));
/// assert!(report.contains("Traffic"));
/// ```
#[derive(Debug, Clone)]
pub struct Monitor {
    title: String,
    sections: Vec<(String, String)>,
}

impl Monitor {
    /// Creates a monitor for a run with the given title.
    pub fn new(title: impl Into<String>) -> Self {
        Monitor {
            title: title.into(),
            sections: Vec::new(),
        }
    }

    /// Appends a free-text section.
    pub fn section(&mut self, title: impl Into<String>, body: impl Into<String>) -> &mut Self {
        self.sections.push((title.into(), body.into()));
        self
    }

    /// Appends a table section.
    pub fn table(&mut self, title: impl Into<String>, table: &TextTable) -> &mut Self {
        self.section(title, table.to_string())
    }

    /// Appends the standard device-inventory section from an address
    /// map.
    pub fn device_inventory(&mut self, map: &AddressMap) -> &mut Self {
        let mut t = TextTable::with_columns(&["address", "class", "label"]);
        for d in map.devices() {
            t.row(vec![d.addr.to_string(), d.class.to_string(), d.label()]);
        }
        self.table("Device inventory", &t)
    }

    /// Appends a windowed-series section: one labelled row of
    /// per-window samples (e.g. blocked cycles of a hot link), in a
    /// compact sparkline-like text form. `window` is the series'
    /// window length in cycles, shown in the header.
    pub fn window_series(
        &mut self,
        title: impl Into<String>,
        window: u64,
        rows: &[(String, Vec<u64>)],
    ) -> &mut Self {
        let mut body = format!("window = {window} cycles\n");
        for (label, samples) in rows {
            let rendered: Vec<String> = samples.iter().map(u64::to_string).collect();
            body.push_str(&format!("{label}: [{}]\n", rendered.join(", ")));
        }
        self.section(title, body)
    }

    /// Number of sections so far.
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// Whether the monitor has no sections.
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// Renders the full report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("==== NoC emulation report: {} ====\n", self.title));
        for (title, body) in &self.sections {
            out.push_str(&format!("\n-- {title} --\n"));
            out.push_str(body);
            if !body.ends_with('\n') {
                out.push('\n');
            }
        }
        out
    }
}

impl std::fmt::Display for Monitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::DeviceClass;

    #[test]
    fn renders_title_and_sections_in_order() {
        let mut m = Monitor::new("t");
        m.section("A", "alpha").section("B", "beta\n");
        let r = m.render();
        let a = r.find("-- A --").unwrap();
        let b = r.find("-- B --").unwrap();
        assert!(a < b);
        assert!(r.contains("alpha\n"));
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
        assert_eq!(m.to_string(), r);
    }

    #[test]
    fn device_inventory_lists_devices() {
        let mut map = AddressMap::new();
        map.allocate(DeviceClass::Control).unwrap();
        map.allocate(DeviceClass::TrafficGenerator).unwrap();
        let mut m = Monitor::new("inv");
        m.device_inventory(&map);
        let r = m.render();
        assert!(r.contains("ctrl"));
        assert!(r.contains("tg0"));
        assert!(r.contains("b0:d1"));
    }

    #[test]
    fn window_series_renders_samples() {
        let mut m = Monitor::new("tele");
        m.window_series(
            "Hot links",
            256,
            &[("l3 blocked".to_string(), vec![0, 12, 40])],
        );
        let r = m.render();
        assert!(r.contains("window = 256 cycles"));
        assert!(r.contains("l3 blocked: [0, 12, 40]"));
    }

    #[test]
    fn table_section_embeds_table() {
        let mut t = TextTable::with_columns(&["k", "v"]);
        t.row(vec!["x".into(), "1".into()]);
        let mut m = Monitor::new("t");
        m.table("Numbers", &t);
        assert!(m.render().contains("Numbers"));
        assert!(m.render().contains('x'));
    }
}
