//! Elaboration: name resolution and construction of `pospec-core` values.

use crate::lexer::{LangError, Span};
use crate::parser::{
    parse, ArgAst, Ast, ReAst, SpecDecl, TemplateAst, TracesAst, UDecl, WitnessTarget,
};
use pospec_alphabet::{ArgSpec, EventPattern, EventSet, ObjSpec, Universe, UniverseBuilder};
use pospec_core::{Specification, TraceSet};
use pospec_regex::{Re, TArg, TObj, Template, VarId};
use pospec_trace::{ClassId, MethodId, ObjectId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A fully elaborated source file.
#[derive(Debug, Clone)]
pub struct Document {
    /// The frozen universe shared by all specifications.
    pub universe: Arc<Universe>,
    /// The specifications, in declaration order.
    pub specs: Vec<Specification>,
    /// The `component` declarations (object ↦ behaviour-spec maps),
    /// name-checked.
    pub components: Vec<crate::parser::ComponentDecl>,
    /// The development obligations (`refine … of …;`,
    /// `compose … from … with …;`, `sound … for …;`), name-checked
    /// against the specifications, components and earlier compositions.
    pub development: Vec<crate::parser::DevStmt>,
}

impl Document {
    /// Look up a component declaration by name.
    pub fn component(&self, name: &str) -> Option<&crate::parser::ComponentDecl> {
        self.components.iter().find(|c| c.name == name)
    }
}

impl Document {
    /// Look up a specification by name.
    pub fn spec(&self, name: &str) -> Option<&Specification> {
        self.specs.iter().find(|s| s.name() == name)
    }
}

/// Parse and elaborate a source text, failing at the first error.
/// Errors carry the offending source line so their `Display` renders a
/// caret underline.
pub fn parse_document(src: &str) -> Result<Document, LangError> {
    let ast = parse(src).map_err(|e| e.with_source(src))?;
    Elaborated::new(ast).into_document().map_err(|e| e.with_source(src))
}

/// One document version's front end: its syntax tree, its universe and
/// every spec's elaboration result.  One loop builds it, through an
/// [`ElabSession`](crate::ElabSession) when the caller keeps one; every
/// consumer of the version (registration, the linter, the LSP) reads
/// this value instead of parsing and elaborating again.
///
/// Unlike a [`Document`], it does not stop at the first error: each spec
/// elaborates on its own against the one universe, so a broken spec
/// does not hide its neighbours from the linter.
#[derive(Debug)]
pub struct Elaborated {
    /// The syntax tree.
    pub ast: Ast,
    /// The frozen universe, or the error of the `universe { … }` block.
    pub universe: Result<Arc<Universe>, LangError>,
    /// One result per entry of `ast.specs`, in declaration order; empty
    /// when the universe did not elaborate.
    pub specs: Vec<Result<Specification, LangError>>,
}

impl Elaborated {
    /// Elaborate `ast` from scratch.
    pub fn new(ast: Ast) -> Elaborated {
        let universe = elaborate_universe(&ast);
        Elaborated::build(ast, universe, elaborate_spec)
    }

    /// The one elaboration loop: every spec of `ast` against `universe`,
    /// each through `spec`.
    pub(crate) fn build(
        ast: Ast,
        universe: Result<Arc<Universe>, LangError>,
        mut spec: impl FnMut(&Arc<Universe>, &SpecDecl) -> Result<Specification, LangError>,
    ) -> Elaborated {
        let specs = match &universe {
            Ok(u) => ast.specs.iter().map(|sd| spec(u, sd)).collect(),
            Err(_) => Vec::new(),
        };
        Elaborated { ast, universe, specs }
    }

    /// Did the universe and every spec elaborate?
    pub(crate) fn all_elaborated(&self) -> bool {
        self.universe.is_ok() && self.specs.iter().all(Result::is_ok)
    }

    /// The [`Document`] of this version, or its first error: the
    /// universe's, then the first failing spec's, then the first name
    /// error of the `component` and `development` blocks.
    pub fn into_document(self) -> Result<Document, LangError> {
        let Elaborated { ast, universe, specs } = self;
        let universe = universe?;
        let specs = specs.into_iter().collect::<Result<Vec<_>, _>>()?;
        check_names(&ast, &universe, &specs)?;
        Ok(Document { universe, specs, components: ast.components, development: ast.development })
    }

    /// Like [`Elaborated::into_document`], keeping this value: the
    /// specifications and declarations are cloned.
    pub fn document(&self) -> Result<Document, LangError> {
        let universe = self.universe.clone()?;
        let specs = self.specs.iter().cloned().collect::<Result<Vec<_>, _>>()?;
        check_names(&self.ast, &universe, &specs)?;
        Ok(Document {
            universe,
            specs,
            components: self.ast.components.clone(),
            development: self.ast.development.clone(),
        })
    }
}

fn err(span: Span, msg: impl Into<String>) -> LangError {
    LangError::new(span, msg)
}

/// Elaborate just the `universe { … }` block of a parsed AST into a
/// frozen universe.
pub(crate) fn elaborate_universe(ast: &Ast) -> Result<Arc<Universe>, LangError> {
    let origin = Span::ORIGIN;
    let mut b = UniverseBuilder::new();
    // Pass 1: classes, so later declarations can reference them.
    for d in &ast.universe {
        match d {
            UDecl::Class(name) => {
                b.object_class(name).map_err(|e| err(origin, e.to_string()))?;
            }
            UDecl::Data(name) => {
                b.data_class(name).map_err(|e| err(origin, e.to_string()))?;
            }
            _ => {}
        }
    }
    // We need class lookups during pass 2; UniverseBuilder has no lookup,
    // so track names locally.
    let mut class_names: BTreeMap<String, ClassId> = BTreeMap::new();
    {
        // Rebuild the name map in declaration order (ids are sequential).
        let mut idx = 0u32;
        for d in &ast.universe {
            if let UDecl::Class(name) | UDecl::Data(name) = d {
                class_names.insert(name.clone(), ClassId(idx));
                idx += 1;
            }
        }
    }
    // Pass 2: objects, methods, values, witnesses.
    for d in &ast.universe {
        match d {
            UDecl::Class(_) | UDecl::Data(_) => {}
            UDecl::Object { name, class } => {
                match class {
                    None => b.object(name).map(|_| ()).map_err(|e| err(origin, e.to_string()))?,
                    Some(cn) => {
                        let c = *class_names
                            .get(cn)
                            .ok_or_else(|| err(origin, format!("unknown class `{cn}`")))?;
                        b.object_in(name, c).map(|_| ()).map_err(|e| err(origin, e.to_string()))?
                    }
                };
            }
            UDecl::Method { name, param } => {
                match param {
                    None => b.method(name).map(|_| ()).map_err(|e| err(origin, e.to_string()))?,
                    Some(cn) => {
                        let c = *class_names
                            .get(cn)
                            .ok_or_else(|| err(origin, format!("unknown class `{cn}`")))?;
                        b.method_with(name, c)
                            .map(|_| ())
                            .map_err(|e| err(origin, e.to_string()))?
                    }
                };
            }
            UDecl::Value { name, class } => {
                let c = *class_names
                    .get(class)
                    .ok_or_else(|| err(origin, format!("unknown class `{class}`")))?;
                b.data_value(name, c).map_err(|e| err(origin, e.to_string()))?;
            }
            UDecl::Witnesses { target, count } => match target {
                WitnessTarget::Anon => {
                    b.anon_witnesses(*count as usize).map_err(|e| err(origin, e.to_string()))?;
                }
                WitnessTarget::Methods => {
                    b.method_witnesses(*count as usize).map_err(|e| err(origin, e.to_string()))?;
                }
                WitnessTarget::Class(cn) => {
                    let c = *class_names
                        .get(cn)
                        .ok_or_else(|| err(origin, format!("unknown class `{cn}`")))?;
                    // Dispatch on class kind.
                    match b
                        .class_witnesses(c, *count as usize)
                        .map(|_| ())
                        .or_else(|_| b.data_witnesses(c, *count as usize).map(|_| ()))
                    {
                        Ok(()) => {}
                        Err(e) => return Err(err(origin, e.to_string())),
                    }
                }
            },
        }
    }
    Ok(b.freeze())
}

/// Name-check the `component` declarations and `development`
/// statements against the elaborated specifications.
fn check_names(ast: &Ast, u: &Arc<Universe>, specs: &[Specification]) -> Result<(), LangError> {
    // Name-check the component declarations.
    let spec_names: std::collections::BTreeSet<String> =
        specs.iter().map(|s| s.name().to_string()).collect();
    let mut component_names = std::collections::BTreeSet::new();
    for cd in &ast.components {
        if spec_names.contains(&cd.name) || !component_names.insert(cd.name.clone()) {
            return Err(err(cd.span, format!("duplicate name `{}`", cd.name)));
        }
        for (obj, behav) in &cd.members {
            if u.object_by_name(obj).is_none() {
                return Err(err(cd.span, format!("unknown object `{obj}`")));
            }
            if !spec_names.contains(behav) {
                return Err(err(cd.span, format!("unknown specification `{behav}`")));
            }
        }
    }
    // Name-check the development statements; `compose` introduces names
    // usable by later statements.
    let mut known: std::collections::BTreeSet<String> = spec_names.clone();
    for stmt in &ast.development {
        match stmt {
            crate::parser::DevStmt::Refine { concrete, abstract_, span } => {
                for n in [concrete, abstract_] {
                    if !known.contains(n) {
                        return Err(err(*span, format!("unknown specification `{n}`")));
                    }
                }
            }
            crate::parser::DevStmt::Compose { name, left, right, span } => {
                for n in [left, right] {
                    if !known.contains(n) {
                        return Err(err(*span, format!("unknown specification `{n}`")));
                    }
                }
                if component_names.contains(name) || !known.insert(name.clone()) {
                    return Err(err(*span, format!("duplicate name `{name}`")));
                }
            }
            crate::parser::DevStmt::Sound { spec, component, span } => {
                if !known.contains(spec) {
                    return Err(err(*span, format!("unknown specification `{spec}`")));
                }
                if !component_names.contains(component) {
                    return Err(err(*span, format!("unknown component `{component}`")));
                }
            }
        }
    }
    Ok(())
}

/// How a name resolves inside a template position.
enum ObjName {
    Object(ObjectId),
    Class(ClassId),
    Var(String),
}

fn resolve_obj(u: &Universe, name: &str) -> ObjName {
    if let Some(o) = u.object_by_name(name) {
        ObjName::Object(o)
    } else if let Some(c) = u.class_by_name(name) {
        ObjName::Class(c)
    } else {
        ObjName::Var(name.to_string())
    }
}

fn resolve_method(u: &Universe, t: &TemplateAst) -> Result<MethodId, LangError> {
    u.method_by_name(&t.method).ok_or_else(|| err(t.span, format!("unknown method `{}`", t.method)))
}

/// Resolve the argument slot for the pattern (alphabet) context.
fn resolve_arg_spec(u: &Universe, t: &TemplateAst) -> Result<ArgSpec, LangError> {
    match &t.arg {
        ArgAst::Absent | ArgAst::Wild => Ok(ArgSpec::Auto),
        ArgAst::Name(n) => {
            if let Some(d) = u.data_by_name(n) {
                Ok(ArgSpec::Value(d))
            } else if u.class_by_name(n).is_some() {
                // `M(Data)` — comprehension over the whole class, which is
                // what the method signature already fixes: Auto.
                Ok(ArgSpec::Auto)
            } else {
                Err(err(t.span, format!("unknown data value or class `{n}`")))
            }
        }
    }
}

fn resolve_arg_template(u: &Universe, t: &TemplateAst) -> Result<TArg, LangError> {
    match &t.arg {
        ArgAst::Absent | ArgAst::Wild => Ok(TArg::Auto),
        ArgAst::Name(n) => {
            if let Some(d) = u.data_by_name(n) {
                Ok(TArg::Value(d))
            } else if u.class_by_name(n).is_some() {
                Ok(TArg::Auto)
            } else {
                Err(err(t.span, format!("unknown data value or class `{n}`")))
            }
        }
    }
}

fn alphabet_pattern(u: &Universe, t: &TemplateAst) -> Result<EventPattern, LangError> {
    let caller = match resolve_obj(u, &t.caller) {
        ObjName::Object(o) => ObjSpec::Id(o),
        ObjName::Class(c) => ObjSpec::Class(c),
        ObjName::Var(v) => {
            return Err(err(t.span, format!("variable `{v}` not allowed in an alphabet")))
        }
    };
    let callee = match resolve_obj(u, &t.callee) {
        ObjName::Object(o) => ObjSpec::Id(o),
        ObjName::Class(c) => ObjSpec::Class(c),
        ObjName::Var(v) => {
            return Err(err(t.span, format!("variable `{v}` not allowed in an alphabet")))
        }
    };
    let method = resolve_method(u, t)?;
    let arg = resolve_arg_spec(u, t)?;
    Ok(EventPattern { caller, callee, method: Some(method), arg })
}

struct VarTable {
    ids: BTreeMap<String, VarId>,
}

impl VarTable {
    fn get(&mut self, name: &str) -> VarId {
        let next = VarId(self.ids.len() as u32);
        *self.ids.entry(name.to_string()).or_insert(next)
    }
}

fn regex_template(
    u: &Universe,
    vars: &mut VarTable,
    t: &TemplateAst,
) -> Result<Template, LangError> {
    let pos = |vars: &mut VarTable, name: &str| match resolve_obj(u, name) {
        ObjName::Object(o) => TObj::Id(o),
        ObjName::Class(c) => TObj::Class(c),
        ObjName::Var(v) => TObj::Var(vars.get(&v)),
    };
    let caller = pos(vars, &t.caller);
    let callee = pos(vars, &t.callee);
    let method = resolve_method(u, t)?;
    let arg = resolve_arg_template(u, t)?;
    Ok(Template { caller, callee, method: Some(method), arg })
}

fn regex(u: &Universe, vars: &mut VarTable, re: &ReAst) -> Result<Re, LangError> {
    Ok(match re {
        ReAst::Eps => Re::Eps,
        ReAst::Lit(t) => Re::lit(regex_template(u, vars, t)?),
        ReAst::Seq(parts) => {
            let parts: Result<Vec<Re>, LangError> =
                parts.iter().map(|p| regex(u, vars, p)).collect();
            Re::seq(parts?)
        }
        ReAst::Alt(parts) => {
            let parts: Result<Vec<Re>, LangError> =
                parts.iter().map(|p| regex(u, vars, p)).collect();
            Re::alt(parts?)
        }
        ReAst::Star(r) => regex(u, vars, r)?.star(),
        ReAst::Plus(r) => regex(u, vars, r)?.plus(),
        ReAst::Opt(r) => regex(u, vars, r)?.opt(),
        ReAst::Group(r) => regex(u, vars, r)?,
        ReAst::Bind { body, var, class, span } => {
            let c = u
                .class_by_name(class)
                .ok_or_else(|| err(*span, format!("unknown class `{class}`")))?;
            let v = vars.get(var);
            regex(u, vars, body)?.bind(v, c)
        }
    })
}

/// Elaborate a single `spec` block against an already-frozen universe.
pub(crate) fn elaborate_spec(u: &Arc<Universe>, sd: &SpecDecl) -> Result<Specification, LangError> {
    let mut objects = Vec::new();
    for (name, nspan) in &sd.objects {
        let o = u
            .object_by_name(name)
            .ok_or_else(|| err(*nspan, format!("unknown object `{name}`")))?;
        objects.push(o);
    }
    let mut alpha = EventSet::empty(u);
    for t in &sd.alphabet {
        alpha = alpha.union(&alphabet_pattern(u, t)?.to_set(u));
    }
    let traces = match &sd.traces {
        TracesAst::Any => TraceSet::Universal,
        TracesAst::Prs(re_ast) => {
            let mut vars = VarTable { ids: BTreeMap::new() };
            TraceSet::prs(regex(u, &mut vars, re_ast)?)
        }
    };
    Specification::new(sd.name.clone(), objects, alpha, traces)
        .map_err(|e| err(sd.span, format!("in spec `{}`: {e}", sd.name)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pospec_trace::{Event, Trace};

    const RW_SOURCE: &str = "
        universe {
          class Objects;
          data Data;
          object o;
          object c : Objects;
          method R(Data);
          method OW; method W(Data); method CW;
          witnesses Objects 2;
          witnesses Data 1;
          witnesses anon 1;
          witnesses methods 1;
        }
        spec Read {
          objects { o }
          alphabet { <Objects, o, R(Data)>; }
          traces any;
        }
        spec Write {
          objects { o }
          alphabet { <Objects, o, OW>; <Objects, o, W(Data)>; <Objects, o, CW>; }
          traces prs [ <x, o, OW> <x, o, W(_)>* <x, o, CW> . x in Objects ]*;
        }
    ";

    #[test]
    fn elaborates_the_example_1_document() {
        let doc = parse_document(RW_SOURCE).unwrap();
        assert_eq!(doc.specs.len(), 2);
        let read = doc.spec("Read").unwrap();
        let write = doc.spec("Write").unwrap();
        assert!(read.is_interface());
        assert!(write.is_interface());
        assert!(read.alphabet().is_infinite());
        assert!(write.alphabet().is_infinite());
        assert!(read.alphabet().is_disjoint(write.alphabet()));
    }

    #[test]
    fn elaborated_write_protocol_behaves_like_the_paper() {
        let doc = parse_document(RW_SOURCE).unwrap();
        let write = doc.spec("Write").unwrap();
        let u = &doc.universe;
        let o = u.object_by_name("o").unwrap();
        let c = u.object_by_name("c").unwrap();
        let ow = u.method_by_name("OW").unwrap();
        let w = u.method_by_name("W").unwrap();
        let cw = u.method_by_name("CW").unwrap();
        let d = u.data_witnesses(u.class_by_name("Data").unwrap()).next().unwrap();
        let good = Trace::from_events(vec![
            Event::call(c, o, ow),
            Event::call_with(c, o, w, d),
            Event::call(c, o, cw),
        ]);
        assert!(write.contains_trace(&good));
        let bad = Trace::from_events(vec![Event::call_with(c, o, w, d)]);
        assert!(!write.contains_trace(&bad), "write without opening is rejected");
        // The binder pins the session to one caller.
        let wit = u.class_witnesses(u.class_by_name("Objects").unwrap()).next().unwrap();
        let interleaved =
            Trace::from_events(vec![Event::call(c, o, ow), Event::call_with(wit, o, w, d)]);
        assert!(!write.contains_trace(&interleaved));
    }

    #[test]
    fn unknown_names_are_reported_with_context() {
        let errsrc = "
            universe { object o; }
            spec S { objects { oops } alphabet { } traces any; }
        ";
        let e = parse_document(errsrc).unwrap_err();
        assert!(e.message.contains("unknown object `oops`"));
    }

    #[test]
    fn alphabet_variables_are_rejected() {
        let src = "
            universe { class C; object o; method M; witnesses C 1; }
            spec S { objects { o } alphabet { <x, o, M>; } traces any; }
        ";
        let e = parse_document(src).unwrap_err();
        assert!(e.message.contains("variable `x` not allowed"));
    }

    #[test]
    fn def1_violations_surface_as_language_errors() {
        // Alphabet internal to the object set.
        let src = "
            universe { class C; object a; object b; method M; witnesses C 1; }
            spec S { objects { a b } alphabet { <a, b, M>; } traces any; }
        ";
        let e = parse_document(src).unwrap_err();
        assert!(e.message.contains("in spec `S`"), "{}", e.message);
    }

    #[test]
    fn specific_value_arguments_elaborate() {
        let src = "
            universe {
              class C; data D; object o; method W(D);
              value d1 : D; witnesses C 1; witnesses D 1;
            }
            spec S {
              objects { o }
              alphabet { <C, o, W(D)>; }
              traces prs <c_any, o, W(d1)>* ;
            }
        ";
        // `c_any` is an unresolved name => variable with no class: any obj.
        let doc = parse_document(src).unwrap();
        let s = doc.spec("S").unwrap();
        let u = &doc.universe;
        let o = u.object_by_name("o").unwrap();
        let w = u.method_by_name("W").unwrap();
        let d1 = u.data_by_name("d1").unwrap();
        let wit = u.class_witnesses(u.class_by_name("C").unwrap()).next().unwrap();
        let t = Trace::from_events(vec![Event::call_with(wit, o, w, d1)]);
        assert!(s.contains_trace(&t));
        // A different data value does not match W(d1).
        let dwit = u.data_witnesses(u.class_by_name("D").unwrap()).next().unwrap();
        let t2 = Trace::from_events(vec![Event::call_with(wit, o, w, dwit)]);
        assert!(!s.contains_trace(&t2));
    }

    #[test]
    fn refinement_between_parsed_specs() {
        // Read2 ⊑ Read expressed entirely in the surface language, using a
        // binder (one reader session at a time in this simplified variant).
        let src = "
            universe {
              class Objects; data Data; object o;
              method R(Data); method OR; method CR;
              witnesses Objects 2; witnesses Data 1;
            }
            spec Read {
              objects { o }
              alphabet { <Objects, o, R(Data)>; }
              traces any;
            }
            spec Read2 {
              objects { o }
              alphabet { <Objects, o, OR>; <Objects, o, R(Data)>; <Objects, o, CR>; }
              traces prs [ <x, o, OR> <x, o, R(_)>* <x, o, CR> . x in Objects ]*;
            }
        ";
        let doc = parse_document(src).unwrap();
        let read = doc.spec("Read").unwrap();
        let read2 = doc.spec("Read2").unwrap();
        let v = pospec_core::check_refinement(read2, read, 6);
        assert!(v.holds(), "{v}");
    }
}
