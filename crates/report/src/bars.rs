//! Stacked horizontal bar charts — the form of the paper's Figures 2-2
//! and 5-1 (performance with the lost fractions stacked above it).

use std::fmt;

/// One horizontal stacked bar: a label plus ordered segments that sum to
/// at most 1.0.
#[derive(Clone, Debug, PartialEq)]
pub struct Bar {
    /// Row label (e.g. a benchmark name).
    pub label: String,
    /// `(fraction, glyph)` segments, drawn left to right.
    pub segments: Vec<(f64, char)>,
}

impl Bar {
    /// Creates a bar.
    pub fn new(label: impl Into<String>, segments: Vec<(f64, char)>) -> Self {
        Bar {
            label: label.into(),
            segments,
        }
    }
}

/// A stacked horizontal bar chart with a shared 0..100% scale.
///
/// # Examples
///
/// ```
/// use jouppi_report::{Bar, BarChart};
///
/// let chart = BarChart::new("performance", 40)
///     .legend('#', "net performance")
///     .legend('.', "lost to misses")
///     .bar(Bar::new("ccom", vec![(0.10, '#'), (0.90, '.')]))
///     .bar(Bar::new("liver", vec![(0.16, '#'), (0.84, '.')]));
/// let text = chart.render();
/// assert!(text.contains("ccom"));
/// assert!(text.contains('#'));
/// ```
#[derive(Clone, Debug, Default)]
pub struct BarChart {
    title: String,
    width: usize,
    bars: Vec<Bar>,
    legend: Vec<(char, String)>,
}

impl BarChart {
    /// Creates an empty chart whose bars are `width` characters at 100%.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(title: impl Into<String>, width: usize) -> Self {
        assert!(width > 0, "bars need nonzero width");
        BarChart {
            title: title.into(),
            width,
            bars: Vec::new(),
            legend: Vec::new(),
        }
    }

    /// Adds a legend entry.
    #[must_use]
    pub fn legend(mut self, glyph: char, meaning: impl Into<String>) -> Self {
        self.legend.push((glyph, meaning.into()));
        self
    }

    /// Adds a bar.
    #[must_use]
    pub fn bar(mut self, bar: Bar) -> Self {
        self.bars.push(bar);
        self
    }

    /// Renders the chart.
    pub fn render(&self) -> String {
        let label_w = self
            .bars
            .iter()
            .map(|b| b.label.chars().count())
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        for b in &self.bars {
            let mut row = String::new();
            let mut used = 0usize;
            for &(frac, glyph) in &b.segments {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "frac is clamped to [0, 1], so the cell count lies in [0, width]"
                )]
                let cells = ((frac.clamp(0.0, 1.0)) * self.width as f64).round() as usize;
                let cells = cells.min(self.width - used);
                row.push_str(&glyph.to_string().repeat(cells));
                used += cells;
            }
            out.push_str(&format!(
                "{:<label_w$} |{row:<width$}|\n",
                b.label,
                width = self.width
            ));
        }
        out.push_str(&format!(
            "{:label_w$} 0%{:>width$}\n",
            "",
            "100%",
            width = self.width
        ));
        for (glyph, meaning) in &self.legend {
            out.push_str(&format!("  {glyph} {meaning}\n"));
        }
        out
    }
}

impl fmt::Display for BarChart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chart() -> BarChart {
        BarChart::new("t", 20)
            .legend('#', "good")
            .legend('.', "bad")
            .bar(Bar::new("a", vec![(0.5, '#'), (0.5, '.')]))
            .bar(Bar::new("bb", vec![(0.25, '#'), (0.75, '.')]))
    }

    #[test]
    fn segments_fill_proportionally() {
        let text = chart().render();
        let a_line = text.lines().find(|l| l.starts_with("a ")).unwrap();
        assert_eq!(a_line.matches('#').count(), 10);
        assert_eq!(a_line.matches('.').count(), 10);
        let b_line = text.lines().find(|l| l.starts_with("bb")).unwrap();
        assert_eq!(b_line.matches('#').count(), 5);
        assert_eq!(b_line.matches('.').count(), 15);
    }

    #[test]
    fn labels_align_and_legend_prints() {
        let text = chart().render();
        let a = text.lines().find(|l| l.starts_with("a ")).unwrap();
        let b = text.lines().find(|l| l.starts_with("bb")).unwrap();
        assert_eq!(a.find('|'), b.find('|'));
        assert!(text.contains("# good"));
        assert!(text.contains(". bad"));
        assert!(text.contains("100%"));
    }

    #[test]
    fn overflow_is_clamped_to_width() {
        let c = BarChart::new("t", 10).bar(Bar::new("x", vec![(0.9, '#'), (0.9, '.')]));
        let line = c.render().lines().nth(1).unwrap().to_owned();
        let inner: String = line
            .chars()
            .skip_while(|&ch| ch != '|')
            .skip(1)
            .take_while(|&ch| ch != '|')
            .collect();
        assert_eq!(inner.chars().count(), 10);
    }

    #[test]
    fn empty_chart_renders() {
        let c = BarChart::new("empty", 10);
        assert!(c.render().contains("empty"));
        assert!(c.to_string().contains("0%"));
    }

    #[test]
    #[should_panic(expected = "nonzero width")]
    fn zero_width_panics() {
        let _ = BarChart::new("x", 0);
    }
}
