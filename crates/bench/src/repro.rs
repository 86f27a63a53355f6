//! Render every paper artifact from fresh campaign data.

use cloudstore::ProviderKind;
use detour_core::CampaignResult;
use measure::Table;
use netsim::error::NetError;
use scenarios::{Client, ExperimentSet};

/// Paper reference values for side-by-side printing in EXPERIMENTS.md.
/// (table, file size MB, route label, seconds)
pub const PAPER_TABLE2: &[(u64, f64, f64, f64)] = &[
    // (size MB, direct, via UAlberta, via UMich) — paper Table II
    (10, 9.46, 6.47, 15.41),
    (20, 18.61, 8.27, 27.71),
    (30, 28.66, 13.85, 39.14),
    (40, 36.86, 17.4, 51.87),
    (50, 42.26, 19.41, 63.68),
    (60, 51.11, 21.99, 80.71),
    (100, 86.92, 35.79, 132.17),
];

/// Paper Table III: Purdue→Google Drive.
pub const PAPER_TABLE3: &[(u64, f64, f64, f64)] = &[
    (10, 98.89, 17.57, 30.59),
    (20, 288.23, 70.55, 83.62),
    (30, 480.95, 120.69, 111.37),
    (40, 585.54, 94.43, 173.53),
    (50, 557.9, 138.03, 126.82),
    (60, 610.88, 142.15, 183.85),
    (100, 748.03, 195.88, 184.07),
];

/// A figure rendered as its ASCII bar chart, its mean±σ series table and
/// the ranking line.
pub fn figure(result: &CampaignResult, title: &str) -> String {
    let mut out = result.chart(title).render(48);
    out.push_str(&result.mean_std_table(&format!("{title} — data")).render());
    let ranking = result.ranking();
    let labels: Vec<String> = ranking.iter().map(|&i| result.routes[i].label()).collect();
    out.push_str(&format!(
        "ranking (fastest→slowest): {}\n",
        labels.join(" > ")
    ));
    out
}

/// Validation block: correlation + multiplicative error of a reproduced
/// route series against the paper's published values.
pub fn validation(
    result: &CampaignResult,
    paper: &[(u64, f64, f64, f64)],
    artifact: &str,
) -> String {
    use std::fmt::Write as _;
    let mut out = format!("validation vs paper ({artifact}):\n");
    let route_series = |col: usize| -> Vec<f64> {
        paper
            .iter()
            .map(|row| match col {
                0 => row.1,
                1 => row.2,
                _ => row.3,
            })
            .collect()
    };
    for (ri, route) in result.routes.iter().enumerate().take(3) {
        let ours = result.mean_series(ri);
        let theirs = route_series(ri);
        if ours.len() != theirs.len() {
            let _ = writeln!(out, "  {}: size grids differ; skipped", route.label());
            continue;
        }
        let corr = measure::pearson(&ours, &theirs).unwrap_or(f64::NAN);
        let ratio = measure::RatioStats::compute(&ours, &theirs);
        let _ = writeln!(
            out,
            "  {:<14} pearson r = {:.4}; geo-mean ratio {:.3}; worst factor {:.2}x",
            route.label(),
            corr,
            ratio.geo_mean_ratio,
            ratio.worst_factor
        );
    }
    out
}

/// A paper-format numbers table (means + % vs direct), with the paper's
/// own values interleaved for comparison when available.
pub fn numbers_table(
    result: &CampaignResult,
    title: &str,
    paper: Option<&[(u64, f64, f64, f64)]>,
) -> String {
    let mut out = result.paper_table(title).render();
    if let Some(rows) = paper {
        let mut t = Table::new(
            &format!("{title} — paper's measured values (2015 testbed)"),
            &[
                "File size (MB)",
                "Direct (s)",
                "via UAlberta (s)",
                "via UMich (s)",
            ],
        );
        for &(mb, d, ua, um) in rows {
            t.row(vec![
                mb.to_string(),
                format!("{d:.2}"),
                format!("{ua:.2}"),
                format!("{um:.2}"),
            ]);
        }
        out.push('\n');
        out.push_str(&t.render());
    }
    out
}

/// Everything the paper reports, rendered in order. Returns the rendered
/// text and the campaign results for further use (Table I/V need them all).
pub fn render_all(set: &ExperimentSet<'_>) -> Result<String, NetError> {
    let mut out = String::new();

    out.push_str(&set.fig3().render());
    out.push('\n');

    let fig2 = set.fig2()?;
    out.push_str(&figure(
        &fig2,
        "Fig 2: Upload performance from UBC to Google Drive (s)",
    ));
    out.push('\n');
    out.push_str(&numbers_table(
        &fig2,
        "Table II: UBC-to-Google Drive average transfer times",
        Some(PAPER_TABLE2),
    ));
    out.push('\n');
    out.push_str(&validation(&fig2, PAPER_TABLE2, "Table II"));
    out.push('\n');

    let fig4 = set.fig4()?;
    out.push_str(&figure(
        &fig4,
        "Fig 4: Upload performance from UBC to Dropbox (s)",
    ));
    out.push('\n');

    out.push_str("== Fig 5: UBC to Google Drive Server Traceroute ==\n");
    out.push_str(&set.fig5().to_string());
    out.push('\n');
    out.push_str("== Fig 6: UAlberta to Google Drive Server Traceroute ==\n");
    out.push_str(&set.fig6().to_string());
    out.push('\n');

    let fig7 = set.fig7()?;
    out.push_str(&figure(
        &fig7,
        "Fig 7: Upload performance from Purdue to Google Drive (s)",
    ));
    out.push('\n');
    out.push_str(&numbers_table(
        &fig7,
        "Table III: Purdue-to-Google Drive average transfer times",
        Some(PAPER_TABLE3),
    ));
    out.push('\n');
    out.push_str(&validation(&fig7, PAPER_TABLE3, "Table III"));
    out.push('\n');

    let fig8 = set.fig8()?;
    out.push_str(&figure(
        &fig8,
        "Fig 8: Upload performance from Purdue to Dropbox (s)",
    ));
    out.push('\n');
    let fig9 = set.fig9()?;
    out.push_str(&figure(
        &fig9,
        "Fig 9: Upload performance from Purdue to OneDrive (s)",
    ));
    out.push('\n');

    out.push_str(&set.table4()?.render());
    out.push('\n');

    let fig10 = set.fig10()?;
    out.push_str(&figure(
        &fig10,
        "Fig 10: Upload performance from UCLA to Google Drive (s)",
    ));
    out.push('\n');
    let fig11 = set.fig11()?;
    out.push_str(&figure(
        &fig11,
        "Fig 11: Upload performance from UCLA to Dropbox (s)",
    ));
    out.push('\n');

    // Tables I and V need the full 3×3 grid; reuse what we have and run the
    // remaining campaigns.
    let mut all: Vec<(Client, ProviderKind, CampaignResult)> = vec![
        (Client::Ubc, ProviderKind::GoogleDrive, fig2),
        (Client::Ubc, ProviderKind::Dropbox, fig4),
        (Client::Purdue, ProviderKind::GoogleDrive, fig7),
        (Client::Purdue, ProviderKind::Dropbox, fig8),
        (Client::Purdue, ProviderKind::OneDrive, fig9),
        (Client::Ucla, ProviderKind::GoogleDrive, fig10),
        (Client::Ucla, ProviderKind::Dropbox, fig11),
    ];
    all.push((
        Client::Ubc,
        ProviderKind::OneDrive,
        set.campaign(Client::Ubc, ProviderKind::OneDrive)?,
    ));
    all.push((
        Client::Ucla,
        ProviderKind::OneDrive,
        set.campaign(Client::Ucla, ProviderKind::OneDrive)?,
    ));

    out.push_str(&scenarios::summary::table1(&all).render());
    out.push('\n');
    out.push_str(&scenarios::summary::table5(&all).render());
    Ok(out)
}

/// The headline orderings the reproduction must preserve; `repro --all`
/// runs this after rendering and fails on a violation.
pub fn check_headline_claims(set: &ExperimentSet<'_>) -> Result<Vec<String>, NetError> {
    let mut violations = Vec::new();
    let fig2 = set.fig2()?;
    if fig2.ranking() != vec![1, 0, 2] {
        violations.push(format!(
            "Fig2 ranking {:?} != [UAlberta, Direct, UMich]",
            fig2.ranking()
        ));
    }
    let last = fig2.sizes.len() - 1;
    let speedup = fig2.stats(last, 0).mean / fig2.stats(last, 1).mean;
    if speedup < 2.0 {
        violations.push(format!(
            "Fig2 100MB detour speedup only {speedup:.2}x (paper: 2.4x)"
        ));
    }
    let fig7 = set.fig7()?;
    let direct = fig7.stats(fig7.sizes.len() - 1, 0).mean;
    let ua = fig7.stats(fig7.sizes.len() - 1, 1).mean;
    if ua * 2.0 > direct {
        violations.push(format!("Fig7: detour {ua:.0}s not ≫ direct {direct:.0}s"));
    }
    let fig10 = set.fig10()?;
    if fig10.ranking()[0] != 0 {
        violations.push("Fig10: direct should win from UCLA".to_string());
    }
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenarios::NorthAmerica;

    #[test]
    fn headline_claims_hold_quick() {
        let world = NorthAmerica::new();
        let set = ExperimentSet::quick(&world);
        let violations = check_headline_claims(&set).unwrap();
        assert!(violations.is_empty(), "violations: {violations:#?}");
    }

    #[test]
    fn figure_rendering() {
        let world = NorthAmerica::new();
        let set = ExperimentSet::quick(&world);
        let fig2 = set.fig2().unwrap();
        let text = figure(&fig2, "Fig 2");
        assert!(text.contains("ranking"));
        assert!(text.contains("via UAlberta"));
        let nums = numbers_table(&fig2, "Table II", Some(PAPER_TABLE2));
        assert!(nums.contains("paper's measured values"));
        assert!(nums.contains("86.92"));
    }
}
