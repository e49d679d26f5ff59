//! Expected answers and the checks that compare replies against them.

/// What `hpcprof-sim` must conclude about one case study.
#[derive(Clone, Copy, Debug)]
pub struct Verdict {
    pub study: &'static str,
    /// `lpi_NUMA` above the 0.1 threshold: "optimization warranted".
    pub warranted: bool,
    /// The variable ranked `#1` by share of remote cost.
    pub top_var: &'static str,
}

/// Verdicts at `--size medium` on the `amd` preset with IBS, the
/// `profile` workload's inputs. EXPERIMENTS.md records the studies at
/// figure scale; the verdict and top variable agree with it for
/// AMG2006 ("optimize"), Blackscholes ("do NOT optimize", `buffer`) and
/// UMT2013 (`STime`). LULESH at medium (edge 40) measures lpi_NUMA 0.085,
/// below the threshold, while EXPERIMENTS.md's 0.220 is at edge 88; that
/// figure-scale verdict is checked by [`LULESH_FIGURE_SCALE`]. AMG2006
/// ranks `RAP_diag_j` first at medium and `RAP_diag_data` at figure
/// scale; EXPERIMENTS.md names both as its hot pair.
pub const MEDIUM: [Verdict; 4] = [
    Verdict {
        study: "lulesh",
        warranted: false,
        top_var: "nodelist",
    },
    Verdict {
        study: "amg2006",
        warranted: true,
        top_var: "RAP_diag_j",
    },
    Verdict {
        study: "blackscholes",
        warranted: false,
        top_var: "buffer",
    },
    Verdict {
        study: "umt2013",
        warranted: true,
        top_var: "STime",
    },
];

/// EXPERIMENTS.md, Figure 3 (LULESH at edge 88, `--size large`):
/// lpi_NUMA 0.220, optimize, `nodelist` 37.0% of remote cost.
pub const LULESH_FIGURE_SCALE: (Verdict, f64, &str) = (
    Verdict {
        study: "lulesh",
        warranted: true,
        top_var: "nodelist",
    },
    0.220,
    "37.0% of remote cost",
);

/// What a text report says: lpi_NUMA, its verdict, and the `#1` line.
#[derive(Debug, PartialEq)]
pub struct Reported {
    pub lpi: f64,
    pub warranted: bool,
    pub top_line: String,
}

pub fn parse_report(text: &str) -> Option<Reported> {
    let lpi_line = text.lines().find(|l| l.starts_with("lpi_NUMA = "))?;
    let lpi = lpi_line
        .strip_prefix("lpi_NUMA = ")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    let warranted = if lpi_line.ends_with("optimization warranted") {
        true
    } else if lpi_line.ends_with("optimization not worthwhile") {
        false
    } else {
        return None;
    };
    let top_line = text.lines().find(|l| l.starts_with("#1 "))?.to_string();
    Some(Reported {
        lpi,
        warranted,
        top_line,
    })
}

/// Compare one report with its expected verdict.
pub fn check_verdict(text: &str, want: &Verdict) -> Result<Reported, String> {
    let got = parse_report(text).ok_or_else(|| {
        format!(
            "{}: report has no lpi_NUMA verdict or #1 variable",
            want.study
        )
    })?;
    if got.warranted != want.warranted {
        return Err(format!(
            "{}: lpi_NUMA {} says warranted={}, expected {}",
            want.study, got.lpi, got.warranted, want.warranted
        ));
    }
    let top = got.top_line.split_whitespace().nth(1).unwrap_or("");
    if top != want.top_var {
        return Err(format!(
            "{}: top variable {top:?}, expected {:?}",
            want.study, want.top_var
        ));
    }
    Ok(got)
}

/// The EXPERIMENTS.md figure-scale LULESH check: verdict, top variable,
/// lpi_NUMA to the three printed digits and the remote-cost share.
pub fn check_figure_scale(text: &str) -> Result<(), String> {
    let (want, lpi, share) = LULESH_FIGURE_SCALE;
    let got = check_verdict(text, &want)?;
    if (got.lpi - lpi).abs() > 5e-4 || !got.top_line.contains(share) {
        return Err(format!(
            "lulesh (large): lpi_NUMA {} and {:?}, EXPERIMENTS.md records {lpi} and {share}",
            got.lpi, got.top_line
        ));
    }
    Ok(())
}

/// Run count in an aggregate reply's first line.
pub fn aggregate_runs(text: &str) -> Option<u64> {
    text.strip_prefix("cross-run aggregate: ")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// An aggregate must count every run acknowledged before it was sent,
/// and none not yet sent when its reply arrived.
pub fn check_aggregate_runs(text: &str, acked_before: u64, sent_after: u64) -> Result<u64, String> {
    let runs = aggregate_runs(text).ok_or("aggregate reply has no run count")?;
    if runs < acked_before || runs > sent_after {
        return Err(format!(
            "aggregate reports {runs} runs, expected {acked_before}..={sent_after}"
        ));
    }
    Ok(runs)
}

/// An ingest reply must carry the locally computed id, and be new
/// exactly when it is not a re-send.
pub fn check_ingest(id: &str, added: bool, want_id: &str, resend: bool) -> Result<(), String> {
    if id != want_id {
        return Err(format!("ingest returned id {id}, computed {want_id}"));
    }
    if added == resend {
        return Err(format!(
            "ingest of {id}: added={added} for a {}",
            if resend { "re-send" } else { "new profile" }
        ));
    }
    Ok(())
}

/// Replies to the same query over an unchanged corpus must be byte-equal:
/// `replies` pairs a query key with its reply's hash.
pub fn check_repeatable<K: Ord + std::fmt::Debug>(replies: Vec<(K, u64)>) -> Result<usize, String> {
    let mut seen = std::collections::BTreeMap::new();
    let mut repeats = 0;
    for (key, hash) in replies {
        match seen.get(&key) {
            None => {
                seen.insert(key, hash);
            }
            Some(&h) if h == hash => repeats += 1,
            Some(_) => return Err(format!("query {key:?} answered with different bytes")),
        }
    }
    Ok(repeats)
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = "NUMA analysis\n=====\n\
        lpi_NUMA = 0.220 cycles/instruction (threshold 0.1): NUMA losses are significant — optimization warranted\n\
        remote accesses: 76.5% of samples\n\n\
        #1 nodelist [static] — 37.0% of remote cost, M_r/M_l = 1.9\n";

    #[test]
    fn reports_parse() {
        let r = parse_report(REPORT).unwrap();
        assert_eq!(r.lpi, 0.220);
        assert!(r.warranted);
        assert!(check_figure_scale(REPORT).is_ok());
    }

    #[test]
    fn a_wrong_expected_answer_trips_every_check() {
        let wrong_verdict = Verdict {
            study: "lulesh",
            warranted: false,
            top_var: "nodelist",
        };
        assert!(check_verdict(REPORT, &wrong_verdict).is_err());
        let wrong_var = Verdict {
            top_var: "z",
            ..LULESH_FIGURE_SCALE.0
        };
        assert!(check_verdict(REPORT, &wrong_var).is_err());
        assert!(check_figure_scale(&REPORT.replace("0.220", "0.221")).is_err());
        let agg = "cross-run aggregate: 2049 run(s), 7 variable(s), 8 domain(s)\n";
        assert_eq!(check_aggregate_runs(agg, 2049, 2049), Ok(2049));
        assert!(check_aggregate_runs(agg, 2050, 2051).is_err());
        assert!(check_ingest("00ab", true, "00ab", false).is_ok());
        assert!(check_ingest("00ab", true, "00ac", false).is_err());
        assert!(check_ingest("00ab", true, "00ab", true).is_err());
        assert_eq!(check_repeatable(vec![(1, 5), (1, 5), (2, 6)]), Ok(1));
        assert!(check_repeatable(vec![(1, 5), (1, 6)]).is_err());
    }
}
