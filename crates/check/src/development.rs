//! Development sessions: stepwise refinement as a first-class, auditable
//! artifact.
//!
//! The paper's methodology is a *process*: start from abstract viewpoint
//! specifications, refine locally (Def. 2), merge aspects by composition,
//! and rely on Theorems 7/16/18 for the global argument.  A
//! [`Development`] records that process — every specification, every
//! claimed refinement edge, every composition — and [`Development::verify`]
//! re-establishes all obligations mechanically, yielding an audit report
//! of which steps hold, with counterexamples for those that do not.

use pospec_core::{
    check_refinement_cached, compose, is_composable, is_proper_refinement, Component, DfaCache,
    Specification, DEFAULT_PREDICATE_DEPTH,
};
use std::collections::BTreeMap;
use std::fmt;

/// One claimed step of a development.
#[derive(Debug, Clone)]
enum Step {
    /// `concrete ⊑ abstract_`.
    Refines { concrete: String, abstract_: String },
    /// `name = left ‖ right`.
    Composed { name: String, left: String, right: String },
    /// `spec` is a sound description of `component` (§2/§7).
    Sound { spec: String, component: String },
}

/// The audit verdict for one step.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// A readable statement of the obligation.
    pub obligation: String,
    /// Whether it was discharged.
    pub holds: bool,
    /// Extra detail (verdict display, counterexample, …).
    pub detail: String,
}

impl fmt::Display for StepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} — {}", if self.holds { "✓" } else { "✗" }, self.obligation, self.detail)
    }
}

/// Errors while *building* a development (verification failures are
/// reported by [`Development::verify`], not here).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DevelopmentError {
    /// A referenced specification name is unknown.
    UnknownSpec(String),
    /// A name was added twice.
    DuplicateSpec(String),
    /// The operands of a composition are not Def.-10 composable.
    NotComposable(String, String),
}

impl fmt::Display for DevelopmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DevelopmentError::UnknownSpec(n) => write!(f, "unknown specification `{n}`"),
            DevelopmentError::DuplicateSpec(n) => write!(f, "duplicate specification `{n}`"),
            DevelopmentError::NotComposable(a, b) => {
                write!(f, "`{a}` and `{b}` are not composable (Def. 10)")
            }
        }
    }
}

impl std::error::Error for DevelopmentError {}

/// A recorded development; see the module documentation.
#[derive(Debug, Default)]
pub struct Development {
    specs: BTreeMap<String, Specification>,
    components: BTreeMap<String, Component>,
    steps: Vec<Step>,
}

impl Development {
    /// An empty development.
    pub fn new() -> Development {
        Development::default()
    }

    /// Register a specification under its own name.
    pub fn add(&mut self, spec: Specification) -> Result<(), DevelopmentError> {
        let name = spec.name().to_string();
        if self.specs.contains_key(&name) {
            return Err(DevelopmentError::DuplicateSpec(name));
        }
        self.specs.insert(name, spec);
        Ok(())
    }

    fn get(&self, name: &str) -> Result<&Specification, DevelopmentError> {
        self.specs.get(name).ok_or_else(|| DevelopmentError::UnknownSpec(name.to_string()))
    }

    /// Register a semantic component under a name.
    pub fn add_component(
        &mut self,
        name: &str,
        component: Component,
    ) -> Result<(), DevelopmentError> {
        if self.components.contains_key(name) || self.specs.contains_key(name) {
            return Err(DevelopmentError::DuplicateSpec(name.to_string()));
        }
        self.components.insert(name.to_string(), component);
        Ok(())
    }

    /// Claim that `spec` is a sound description of `component`
    /// (verified later via `Component::check_soundness`).
    pub fn claim_sound(&mut self, spec: &str, component: &str) -> Result<(), DevelopmentError> {
        self.get(spec)?;
        if !self.components.contains_key(component) {
            return Err(DevelopmentError::UnknownSpec(component.to_string()));
        }
        self.steps.push(Step::Sound { spec: spec.to_string(), component: component.to_string() });
        Ok(())
    }

    /// Claim `concrete ⊑ abstract_` (verified later).
    pub fn claim_refines(
        &mut self,
        concrete: &str,
        abstract_: &str,
    ) -> Result<(), DevelopmentError> {
        self.get(concrete)?;
        self.get(abstract_)?;
        self.steps.push(Step::Refines {
            concrete: concrete.to_string(),
            abstract_: abstract_.to_string(),
        });
        Ok(())
    }

    /// Merge two registered specifications by composition, registering the
    /// result under `name`.  Composability is checked eagerly (it is a
    /// static side condition, not a proof obligation).
    pub fn merge(&mut self, name: &str, left: &str, right: &str) -> Result<(), DevelopmentError> {
        let l = self.get(left)?.clone();
        let r = self.get(right)?.clone();
        if !is_composable(&l, &r) {
            return Err(DevelopmentError::NotComposable(left.to_string(), right.to_string()));
        }
        if self.specs.contains_key(name) {
            return Err(DevelopmentError::DuplicateSpec(name.to_string()));
        }
        let composed = compose(&l, &r).expect("checked composable").renamed(name.to_string());
        self.specs.insert(name.to_string(), composed);
        self.steps.push(Step::Composed {
            name: name.to_string(),
            left: left.to_string(),
            right: right.to_string(),
        });
        Ok(())
    }

    /// Is a refinement of `refined_from` into `refined_to` proper with
    /// respect to every *other* registered specification (Def. 14)?
    pub fn properness_report(&self, concrete: &str, abstract_: &str) -> Vec<(String, bool)> {
        let (Ok(c), Ok(a)) = (self.get(concrete), self.get(abstract_)) else {
            return Vec::new();
        };
        self.specs
            .iter()
            .filter(|(name, _)| name.as_str() != concrete && name.as_str() != abstract_)
            .map(|(name, ctx)| (name.clone(), is_proper_refinement(c, a, ctx)))
            .collect()
    }

    /// Re-verify every claimed obligation.
    ///
    /// Refinement obligations go through [`check_refinement_cached`] at
    /// [`DEFAULT_PREDICATE_DEPTH`], sharing one [`DfaCache`] per call: a
    /// specification appearing in many obligations is finitized once.
    /// Soundness obligations explore to the same depth.
    pub fn verify(&self) -> Vec<StepReport> {
        let cache = DfaCache::new();
        let mut out = Vec::new();
        for step in &self.steps {
            match step {
                Step::Refines { concrete, abstract_ } => {
                    let c = &self.specs[concrete];
                    let a = &self.specs[abstract_];
                    let v = check_refinement_cached(&cache, c, a, DEFAULT_PREDICATE_DEPTH);
                    out.push(StepReport {
                        obligation: format!("{concrete} ⊑ {abstract_}"),
                        holds: v.holds(),
                        detail: format!("{v}"),
                    });
                }
                Step::Composed { name, left, right } => {
                    // Lemma 6 obligations when the operands share objects;
                    // otherwise composability (already checked) suffices.
                    let composed = &self.specs[name];
                    let l = &self.specs[left];
                    let r = &self.specs[right];
                    if l.objects() == r.objects() {
                        for (part, label) in [(l, left), (r, right)] {
                            let v = check_refinement_cached(
                                &cache,
                                composed,
                                part,
                                DEFAULT_PREDICATE_DEPTH,
                            );
                            out.push(StepReport {
                                obligation: format!("{name} ⊑ {label} (Lemma 6)"),
                                holds: v.holds(),
                                detail: format!("{v}"),
                            });
                        }
                    } else {
                        out.push(StepReport {
                            obligation: format!("{name} = {left} ‖ {right}"),
                            holds: true,
                            detail: "composable (Def. 10)".to_string(),
                        });
                    }
                }
                Step::Sound { spec, component } => {
                    let s = &self.specs[spec];
                    let c = &self.components[component];
                    match c.check_soundness(s, DEFAULT_PREDICATE_DEPTH) {
                        Ok(()) => out.push(StepReport {
                            obligation: format!("{spec} sound for {component}"),
                            holds: true,
                            detail: "every joint behaviour projects into the spec".to_string(),
                        }),
                        Err(cex) => out.push(StepReport {
                            obligation: format!("{spec} sound for {component}"),
                            holds: false,
                            detail: format!("joint counterexample: {cex}"),
                        }),
                    }
                }
            }
        }
        out
    }

    /// Do all obligations hold?
    pub fn all_verified(&self) -> bool {
        self.verify().iter().all(|r| r.holds)
    }

    /// The registered specifications.
    pub fn specs(&self) -> impl Iterator<Item = &Specification> + '_ {
        self.specs.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Arena, SpecGen};

    fn arena_dev() -> (Arena, Development) {
        (Arena::new(2, 2), Development::new())
    }

    #[test]
    fn a_valid_development_verifies() {
        let (arena, mut dev) = arena_dev();
        let mut g = SpecGen::new(arena.clone(), 77);
        let concrete = g.random_env_spec(&[arena.objs[0]], "Impl").renamed("Impl");
        let abstract_ = g.abstraction_of(&concrete, false, 6).renamed("Spec");
        dev.add(abstract_).unwrap();
        dev.add(concrete).unwrap();
        dev.claim_refines("Impl", "Spec").unwrap();
        let reports = dev.verify();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].holds, "{}", reports[0]);
        assert!(dev.all_verified());
    }

    #[test]
    fn failed_obligations_are_reported_not_hidden() {
        let (arena, mut dev) = arena_dev();
        let mut g = SpecGen::new(arena.clone(), 78);
        let a = g.random_env_spec(&[arena.objs[0]], "A").renamed("A");
        // B: same object, different alphabet — almost surely not a
        // refinement of A in both directions.
        let b = g.random_env_spec(&[arena.objs[1]], "B").renamed("B");
        dev.add(a).unwrap();
        dev.add(b).unwrap();
        dev.claim_refines("A", "B").unwrap();
        let reports = dev.verify();
        assert!(!reports[0].holds, "objects differ: cannot refine");
        assert!(!dev.all_verified());
    }

    #[test]
    fn merge_checks_composability_and_adds_lemma6_obligations() {
        let (arena, mut dev) = arena_dev();
        let mut g = SpecGen::new(arena.clone(), 79);
        let v1 = g.random_env_spec(&[arena.objs[0]], "View1").renamed("View1");
        let v2 = g.random_env_spec(&[arena.objs[0]], "View2").renamed("View2");
        dev.add(v1).unwrap();
        dev.add(v2).unwrap();
        dev.merge("Merged", "View1", "View2").unwrap();
        let reports = dev.verify();
        assert_eq!(reports.len(), 2, "two Lemma-6 obligations");
        for r in &reports {
            assert!(r.holds, "{r}");
        }
        // The merged spec is available for further steps.
        dev.claim_refines("Merged", "View1").unwrap();
        assert!(dev.all_verified());
    }

    #[test]
    fn errors_are_structural() {
        let (arena, mut dev) = arena_dev();
        let mut g = SpecGen::new(arena.clone(), 80);
        let a = g.random_env_spec(&[arena.objs[0]], "A").renamed("A");
        dev.add(a.clone()).unwrap();
        assert_eq!(dev.add(a), Err(DevelopmentError::DuplicateSpec("A".into())));
        assert_eq!(
            dev.claim_refines("A", "Nope"),
            Err(DevelopmentError::UnknownSpec("Nope".into()))
        );
        assert_eq!(dev.merge("X", "A", "Nope"), Err(DevelopmentError::UnknownSpec("Nope".into())));
    }

    #[test]
    fn properness_report_covers_other_specs() {
        let (arena, mut dev) = arena_dev();
        let mut g = SpecGen::new(arena.clone(), 81);
        let conc =
            g.random_spec_with_partners(&[arena.objs[0], arena.objs[1]], &[], "C").renamed("C");
        let abs = g.abstraction_of(&conc, true, 6).renamed("Aθ");
        let ctx = g.random_env_spec(&[arena.objs[1]], "Ctx").renamed("Ctx");
        dev.add(conc).unwrap();
        dev.add(abs).unwrap();
        dev.add(ctx).unwrap();
        let report = dev.properness_report("C", "Aθ");
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].0, "Ctx");
    }
}
