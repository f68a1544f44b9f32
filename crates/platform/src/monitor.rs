//! The monitor: the final report shown "on the screen of the user's
//! PC".
//!
//! [`Monitor`] assembles named report sections (run overview, traffic
//! statistics, congestion tables) into the plain-text final
//! report that ends every emulation flow. It is deliberately dumb —
//! content comes from the engines; this keeps the platform crate free
//! of statistics dependencies.

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
    fn table_section_embeds_table() {
        let mut t = TextTable::with_columns(&["k", "v"]);
        t.row(vec!["x".into(), "1".into()]);
        let mut m = Monitor::new("t");
        m.table("Numbers", &t);
        assert!(m.render().contains("Numbers"));
        assert!(m.render().contains('x'));
    }
}
