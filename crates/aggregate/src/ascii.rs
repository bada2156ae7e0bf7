//! ASCII rendering for the bench harnesses: every reproduced figure
//! prints directly in a terminal or CI log.

/// Render a CDF (or any monotone series) as a fixed-width line chart.
///
/// `series` is `(x, fraction)` with fractions in `[0, 1]`.
pub fn ascii_cdf(title: &str, series: &[(f64, f64)], width: usize) -> String {
    let mut out = format!("{title}\n");
    for &(x, frac) in series {
        let bars = (frac * width as f64).round() as usize;
        out.push_str(&format!(
            "{:>10.1} |{}{} {:.2}\n",
            x,
            "#".repeat(bars.min(width)),
            " ".repeat(width.saturating_sub(bars)),
            frac
        ));
    }
    out
}

/// Render histogram bars.
pub fn ascii_histogram(title: &str, bars: &[(f64, u64)], width: usize) -> String {
    let max = bars.iter().map(|&(_, c)| c).max().unwrap_or(1).max(1);
    let mut out = format!("{title}\n");
    for &(edge, count) in bars {
        let len = (count as f64 / max as f64 * width as f64).round() as usize;
        out.push_str(&format!("{:>8.0} |{} {}\n", edge, "#".repeat(len), count));
    }
    out
}

/// Render a scatter as a character grid (rows = y buckets, top = max).
pub fn ascii_scatter(title: &str, points: &[(f64, f64)], cols: usize, rows: usize) -> String {
    let mut out = format!("{title}\n");
    if points.is_empty() || cols == 0 || rows == 0 {
        out.push_str("(no data)\n");
        return out;
    }
    let (min_x, max_x) =
        points.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &(x, _)| (lo.min(x), hi.max(x)));
    let (min_y, max_y) =
        points.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &(_, y)| (lo.min(y), hi.max(y)));
    let dx = (max_x - min_x).max(1e-12);
    let dy = (max_y - min_y).max(1e-12);
    let mut grid = vec![vec![' '; cols]; rows];
    for &(x, y) in points {
        let c = (((x - min_x) / dx) * (cols - 1) as f64).round() as usize;
        let r = (((y - min_y) / dy) * (rows - 1) as f64).round() as usize;
        grid[rows - 1 - r][c] = '*';
    }
    for (i, row) in grid.iter().enumerate() {
        let label = if i == 0 {
            format!("{max_y:>9.0}")
        } else if i == rows - 1 {
            format!("{min_y:>9.0}")
        } else {
            " ".repeat(9)
        };
        out.push_str(&format!("{label} |{}\n", row.iter().collect::<String>()));
    }
    out.push_str(&format!(
        "{:>9} +{}\n{:>9}  {:<width$.0}{:>right$.0}\n",
        "",
        "-".repeat(cols),
        "",
        min_x,
        max_x,
        width = cols / 2,
        right = cols - cols / 2
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_rendering_contains_each_row() {
        let s = ascii_cdf("test cdf", &[(1.0, 0.25), (4.0, 1.0)], 20);
        assert!(s.contains("test cdf"));
        assert!(s.contains("0.25"));
        assert!(s.contains("1.00"));
        assert_eq!(s.lines().count(), 3);
    }

    #[test]
    fn histogram_scales_to_max() {
        let s = ascii_histogram("h", &[(0.0, 1), (1.0, 10)], 10);
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[2].matches('#').count() == 10);
        assert!(lines[1].matches('#').count() == 1);
    }

    #[test]
    fn scatter_renders_grid() {
        let s = ascii_scatter("sc", &[(0.0, 0.0), (10.0, 5.0)], 20, 5);
        assert!(s.contains('*'));
        assert!(s.lines().count() >= 6);
    }

    #[test]
    fn scatter_handles_empty() {
        let s = ascii_scatter("sc", &[], 20, 5);
        assert!(s.contains("no data"));
    }

    #[test]
    fn fraction_overflow_is_clamped() {
        // A fraction slightly above 1.0 must not panic.
        let s = ascii_cdf("c", &[(1.0, 1.02)], 10);
        assert!(s.contains('#'));
    }
}
