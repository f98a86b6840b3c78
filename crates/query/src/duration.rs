//! Human-friendly duration literals for the query DSL: `250ms`, `5s`,
//! `2m`, `1h`. All durations resolve to milliseconds — the unit the rest
//! of the workspace uses for time-measure timestamps.

use gss_core::Time;

/// Parses a duration literal into milliseconds.
///
/// Accepted suffixes: `ms`, `s`, `m`, `h`. A bare integer is milliseconds.
pub(crate) fn parse_duration(input: &str) -> Result<Time, String> {
    let s = input.trim();
    if s.is_empty() {
        return Err("empty duration".into());
    }
    let (digits, unit): (&str, &str) = match s.find(|c: char| !c.is_ascii_digit()) {
        None => (s, "ms"),
        Some(split) => (&s[..split], s[split..].trim()),
    };
    if digits.is_empty() {
        return Err(format!("duration '{input}' has no numeric part"));
    }
    let value: Time = digits.parse().map_err(|e| format!("duration '{input}': bad number: {e}"))?;
    let factor: Time = match unit {
        "ms" => 1,
        "s" => 1_000,
        "m" => 60_000,
        "h" => 3_600_000,
        other => return Err(format!("duration '{input}': unknown unit '{other}'")),
    };
    value.checked_mul(factor).ok_or_else(|| format!("duration '{input}' overflows"))
}

/// Formats milliseconds back into the shortest exact literal.
pub(crate) fn format_duration(ms: Time) -> String {
    for (factor, unit) in [(3_600_000, "h"), (60_000, "m"), (1_000, "s")] {
        if ms != 0 && ms % factor == 0 {
            return format!("{}{}", ms / factor, unit);
        }
    }
    format!("{ms}ms")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_units() {
        assert_eq!(parse_duration("250ms"), Ok(250));
        assert_eq!(parse_duration("5s"), Ok(5_000));
        assert_eq!(parse_duration("2m"), Ok(120_000));
        assert_eq!(parse_duration("1h"), Ok(3_600_000));
        assert_eq!(parse_duration("42"), Ok(42));
        assert_eq!(parse_duration(" 7s "), Ok(7_000));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_duration("").is_err());
        assert!(parse_duration("s").is_err());
        assert!(parse_duration("5d").is_err());
        assert!(parse_duration("5.5s").is_err());
        assert!(parse_duration("99999999999999999999s").is_err());
    }

    #[test]
    fn formats_shortest_exact() {
        assert_eq!(format_duration(250), "250ms");
        assert_eq!(format_duration(5_000), "5s");
        assert_eq!(format_duration(90_000), "90s");
        assert_eq!(format_duration(120_000), "2m");
        assert_eq!(format_duration(3_600_000), "1h");
    }

    #[test]
    fn roundtrip() {
        for ms in [1, 999, 1_000, 61_000, 3_600_000, 7_200_000] {
            assert_eq!(parse_duration(&format_duration(ms)), Ok(ms));
        }
    }
}
