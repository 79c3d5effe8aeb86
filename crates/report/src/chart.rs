//! Multi-series ASCII line charts, for rendering the paper's figures in a
//! terminal.

use std::fmt;

/// One named data series: `(x, y)` points plus the glyph that plots it.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// Plot glyph (one per series, e.g. `'*'`, `'o'`).
    pub marker: char,
    /// Data points as `(x, y)`.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series.
    pub fn new(name: impl Into<String>, marker: char, points: Vec<(f64, f64)>) -> Self {
        Series {
            name: name.into(),
            marker,
            points,
        }
    }
}

/// An ASCII line chart: a fixed-size character grid with axes, one glyph
/// per series, and a legend.
///
/// # Examples
///
/// ```
/// use jouppi_report::{Chart, Series};
///
/// let chart = Chart::new("misses removed vs entries", 40, 12)
///     .y_range(0.0, 100.0)
///     .series(Series::new("victim", '*', vec![(1.0, 20.0), (4.0, 50.0)]))
///     .series(Series::new("miss", 'o', vec![(1.0, 0.0), (4.0, 35.0)]));
/// let text = chart.render();
/// assert!(text.contains('*'));
/// assert!(text.contains("victim"));
/// ```
#[derive(Clone, Debug)]
pub struct Chart {
    title: String,
    width: usize,
    height: usize,
    series: Vec<Series>,
    y_min: Option<f64>,
    y_max: Option<f64>,
}

impl Chart {
    /// Creates an empty chart with a plot area of `width`×`height`
    /// characters.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is smaller than 2.
    pub fn new(title: impl Into<String>, width: usize, height: usize) -> Self {
        assert!(width >= 2 && height >= 2, "chart area too small");
        Chart {
            title: title.into(),
            width,
            height,
            series: Vec::new(),
            y_min: None,
            y_max: None,
        }
    }

    /// Fixes the y-axis range instead of auto-scaling.
    #[must_use]
    pub fn y_range(mut self, min: f64, max: f64) -> Self {
        self.y_min = Some(min);
        self.y_max = Some(max);
        self
    }

    /// Adds a series.
    #[must_use]
    pub fn series(mut self, s: Series) -> Self {
        self.series.push(s);
        self
    }

    fn bounds(&self) -> (f64, f64, f64, f64) {
        let all: Vec<(f64, f64)> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().copied())
            .collect();
        let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut y0, mut y1) = (f64::INFINITY, f64::NEG_INFINITY);
        for (x, y) in all {
            x0 = x0.min(x);
            x1 = x1.max(x);
            y0 = y0.min(y);
            y1 = y1.max(y);
        }
        if !x0.is_finite() {
            (x0, x1, y0, y1) = (0.0, 1.0, 0.0, 1.0);
        }
        if let Some(m) = self.y_min {
            y0 = m;
        }
        if let Some(m) = self.y_max {
            y1 = m;
        }
        if (x1 - x0).abs() < f64::EPSILON {
            x1 = x0 + 1.0;
        }
        if (y1 - y0).abs() < f64::EPSILON {
            y1 = y0 + 1.0;
        }
        (x0, x1, y0, y1)
    }

    /// Renders the chart: title, plot area with y-axis labels, x-axis
    /// labels, and a legend line per series.
    pub fn render(&self) -> String {
        let (x0, x1, y0, y1) = self.bounds();
        let mut grid = vec![vec![' '; self.width]; self.height];
        for s in &self.series {
            for &(x, y) in &s.points {
                let cx = ((x - x0) / (x1 - x0) * (self.width - 1) as f64).round();
                let cy = ((y - y0) / (y1 - y0) * (self.height - 1) as f64).round();
                if cx >= 0.0 && cy >= 0.0 {
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "non-negative grid coordinates; `as` saturates, and the \
                                  bounds check below rejects anything off the grid"
                    )]
                    let (cx, cy) = (cx as usize, cy as usize);
                    if cx < self.width && cy < self.height {
                        grid[self.height - 1 - cy][cx] = s.marker;
                    }
                }
            }
        }
        let label_w = 8;
        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        for (i, row) in grid.iter().enumerate() {
            let frac = 1.0 - i as f64 / (self.height - 1) as f64;
            let yv = y0 + frac * (y1 - y0);
            let label = if i == 0 || i == self.height - 1 || i == (self.height - 1) / 2 {
                format!("{yv:>7.1} ")
            } else {
                " ".repeat(label_w)
            };
            out.push_str(&label);
            out.push('|');
            out.push_str(&row.iter().collect::<String>());
            out.push('\n');
        }
        out.push_str(&" ".repeat(label_w));
        out.push('+');
        out.push_str(&"-".repeat(self.width));
        out.push('\n');
        out.push_str(&format!(
            "{}{:<w$.1}{:>r$.1}\n",
            " ".repeat(label_w + 1),
            x0,
            x1,
            w = self.width / 2,
            r = self.width - self.width / 2
        ));
        for s in &self.series {
            out.push_str(&format!("  {} {}\n", s.marker, s.name));
        }
        out
    }
}

impl fmt::Display for Chart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chart() -> Chart {
        Chart::new("test", 20, 10)
            .y_range(0.0, 100.0)
            .series(Series::new("up", '*', vec![(0.0, 0.0), (10.0, 100.0)]))
            .series(Series::new("flat", 'o', vec![(0.0, 50.0), (10.0, 50.0)]))
    }

    #[test]
    fn renders_title_axes_and_legend() {
        let text = chart().render();
        assert!(text.starts_with("test\n"));
        assert!(text.contains('|'));
        assert!(text.contains('+'));
        assert!(text.contains("* up"));
        assert!(text.contains("o flat"));
    }

    #[test]
    fn corners_land_in_corners() {
        let text = chart().render();
        let plot_lines: Vec<&str> = text.lines().filter(|l| l.contains('|')).collect();
        // Topmost plot row holds the (10,100) point at the right edge.
        assert!(plot_lines[0].ends_with('*'));
        // Bottom plot row holds (0,0) right after the axis.
        let bottom = plot_lines[plot_lines.len() - 1];
        let after_pipe = &bottom[bottom.find('|').unwrap() + 1..];
        assert!(after_pipe.starts_with('*'));
    }

    #[test]
    fn flat_series_sits_mid_height() {
        let text = chart().render();
        let mid_rows: Vec<&str> = text.lines().filter(|l| l.contains('o')).collect();
        // All 'o' markers on one row (excluding the legend line).
        let plot_rows: Vec<&str> = mid_rows
            .iter()
            .filter(|l| l.contains('|'))
            .copied()
            .collect();
        assert_eq!(plot_rows.len(), 1);
    }

    #[test]
    fn empty_chart_renders_without_panic() {
        let c = Chart::new("empty", 10, 5);
        let text = c.render();
        assert!(text.contains("empty"));
    }

    #[test]
    fn single_point_is_plotted() {
        let c = Chart::new("dot", 10, 5).series(Series::new("p", '#', vec![(3.0, 3.0)]));
        assert!(c.render().contains('#'));
        assert!(c.to_string().contains('#'));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn degenerate_area_panics() {
        let _ = Chart::new("x", 1, 5);
    }
}
