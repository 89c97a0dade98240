//! Reads the CSV `kpm dos` prints and checks it is a density of states.

/// The `energy` and `dos` columns of a `kpm dos` CSV.
#[derive(Debug)]
pub struct DosCsv {
    pub energies: Vec<f64>,
    pub dos: Vec<f64>,
}

/// Parses the CSV, locating the two columns by header name so that
/// extra columns (an error band, say) do not break the benchmark.
pub fn parse(text: &str) -> Result<DosCsv, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty CSV")?;
    let names: Vec<&str> = header.split(',').map(str::trim).collect();
    let column = |name: &str| {
        names
            .iter()
            .position(|&c| c == name)
            .ok_or_else(|| format!("no `{name}` column in header `{header}`"))
    };
    let (e_col, d_col) = (column("energy")?, column("dos")?);
    let mut out = DosCsv {
        energies: Vec::new(),
        dos: Vec::new(),
    };
    for (i, line) in lines.enumerate() {
        let cells: Vec<&str> = line.split(',').collect();
        let cell = |col: usize| -> Result<f64, String> {
            let raw = cells.get(col).ok_or_else(|| {
                format!("row {}: {} of {} columns", i + 1, cells.len(), names.len())
            })?;
            raw.trim()
                .parse::<f64>()
                .map_err(|e| format!("row {}: `{raw}`: {e}", i + 1))
        };
        out.energies.push(cell(e_col)?);
        out.dos.push(cell(d_col)?);
    }
    Ok(out)
}

pub fn trapezoid(x: &[f64], y: &[f64]) -> f64 {
    x.windows(2)
        .zip(y.windows(2))
        .map(|(x, y)| 0.5 * (x[1] - x[0]) * (y[0] + y[1]))
        .sum()
}

/// A DOS curve has `rows` finite samples and integrates to one.
pub fn check_curve(x: &[f64], y: &[f64], rows: usize, tol: f64) -> Result<(), String> {
    if x.len() != rows || y.len() != rows {
        return Err(format!("{} rows, expected {rows}", x.len().min(y.len())));
    }
    if let Some(i) = (0..rows).find(|&i| !x[i].is_finite() || !y[i].is_finite()) {
        return Err(format!("row {}: non-finite value", i + 1));
    }
    let integral = trapezoid(x, y);
    if (integral - 1.0).abs() > tol {
        return Err(format!("DOS integrates to {integral}, expected 1 ± {tol}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_columns_by_name_with_an_extra_column() {
        let csv = parse("sigma,energy,dos\n0.1,-1.0,0.25\n0.1,1.0,0.75\n").unwrap();
        assert_eq!(csv.energies, [-1.0, 1.0]);
        assert_eq!(csv.dos, [0.25, 0.75]);
    }

    #[test]
    fn rejects_a_truncated_file() {
        assert!(parse("energy,dos\n-1.0,0.5\n0.0,").is_err());
        assert!(parse("energy,dos\n-1.0,0.5\n0.0").is_err());
        assert!(parse("energy\n-1.0\n").is_err());
        assert!(parse("").is_err());
        let short = parse("energy,dos\n-1.0,0.5\n1.0,0.5\n").unwrap();
        assert!(check_curve(&short.energies, &short.dos, 1024, 1e-3).is_err());
    }

    #[test]
    fn a_flat_unit_density_passes_and_a_nan_fails() {
        let x: Vec<f64> = (0..1024).map(|i| i as f64 / 1023.0).collect();
        let mut y = vec![1.0; 1024];
        assert!(check_curve(&x, &y, 1024, 1e-3).is_ok());
        y[7] = f64::NAN;
        assert!(check_curve(&x, &y, 1024, 1e-3).is_err());
        y[7] = 3.0;
        assert!(check_curve(&x, &y, 1024, 1e-4).is_err());
    }
}
