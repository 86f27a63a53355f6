//! Middleboxes: traffic policers.
//!
//! The paper attributes UBC's slow Google uploads to the hand-off at
//! `vncv1rtr2.canarie.ca` onto the `pacificwave` link, where PlanetLab-class
//! traffic is (the authors speculate) rate-limited, while UAlberta traffic
//! crossing the *same router* is not. We model that with policers scoped by
//! [`crate::flow::FlowClass`]:
//!
//! * a **per-flow** policer caps each matching flow independently (typical
//!   of per-slice shaping on PlanetLab, or per-connection rate limits), and
//! * an **aggregate** policer gives all matching flows a shared virtual
//!   queue of fixed capacity, which the allocator shares max-min fairly.

use crate::flow::FlowClass;
use crate::topology::LinkId;
use crate::units::Bandwidth;

/// How a policer applies its rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicerScope {
    /// Each matching flow is independently capped at the policer rate.
    PerFlow,
    /// All matching flows share the policer rate max-min fairly.
    Aggregate,
}

/// A rate policer attached to a link, filtered by flow class.
#[derive(Debug, Clone)]
pub struct Policer {
    /// Link the policer is attached to.
    pub link: LinkId,
    /// Which traffic classes it matches.
    pub matches: Vec<FlowClass>,
    /// The policed rate.
    pub rate: Bandwidth,
    /// Per-flow or aggregate semantics.
    pub scope: PolicerScope,
    /// Diagnostic name (appears in bottleneck reports).
    pub name: String,
}

impl Policer {
    /// A per-flow policer.
    pub fn per_flow(name: &str, link: LinkId, class: FlowClass, rate: Bandwidth) -> Self {
        Policer {
            link,
            matches: vec![class],
            rate,
            scope: PolicerScope::PerFlow,
            name: name.into(),
        }
    }

    /// An aggregate policer.
    pub fn aggregate(name: &str, link: LinkId, class: FlowClass, rate: Bandwidth) -> Self {
        Policer {
            link,
            matches: vec![class],
            rate,
            scope: PolicerScope::Aggregate,
            name: name.into(),
        }
    }

    /// Extend the matched classes.
    pub fn also_matching(mut self, class: FlowClass) -> Self {
        self.matches.push(class);
        self
    }

    /// Does this policer apply to a flow of `class` crossing `link`?
    pub fn applies(&self, link: LinkId, class: FlowClass) -> bool {
        self.link == link && self.matches.contains(&class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_flow_policer_matches_class_and_link() {
        let p = Policer::per_flow(
            "pacificwave",
            LinkId(3),
            FlowClass::PlanetLab,
            Bandwidth::from_mbps(9.5),
        );
        assert!(p.applies(LinkId(3), FlowClass::PlanetLab));
        assert!(!p.applies(LinkId(3), FlowClass::Research));
        assert!(!p.applies(LinkId(4), FlowClass::PlanetLab));
        assert_eq!(p.scope, PolicerScope::PerFlow);
    }

    #[test]
    fn also_matching_extends() {
        let p = Policer::aggregate(
            "ix",
            LinkId(0),
            FlowClass::Commodity,
            Bandwidth::from_mbps(100.0),
        )
        .also_matching(FlowClass::Background);
        assert!(p.applies(LinkId(0), FlowClass::Commodity));
        assert!(p.applies(LinkId(0), FlowClass::Background));
        assert_eq!(p.scope, PolicerScope::Aggregate);
    }
}
