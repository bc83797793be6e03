//! Running objects + online monitors: the open-distributed-system story.
//!
//! A passive access-control server, protocol-abiding clients and one
//! faulty client run under the deterministic scheduler (and once under
//! real threads); multiple *partial* specifications of the same server
//! are monitored simultaneously against the same run.
//!
//! Run with `cargo run --example distributed_monitor`.

use pospec::prelude::*;
use pospec_sim::behaviors::{FaultyClient, PassiveServer, RwClient, RwMethods};
use pospec_trace::{ClassId, DataId, ObjectId};
use std::sync::Arc;

struct World {
    u: Arc<Universe>,
    o: ObjectId,
    c1: ObjectId,
    c2: ObjectId,
    objects: ClassId,
    m: RwMethods,
    d: DataId,
}

fn world() -> World {
    let mut b = UniverseBuilder::new();
    let objects = b.object_class("Objects").unwrap();
    let data = b.data_class("Data").unwrap();
    let o = b.object("o").unwrap();
    let c1 = b.object_in("c1", objects).unwrap();
    let c2 = b.object_in("c2", objects).unwrap();
    let m = RwMethods {
        or_: b.method("OR").unwrap(),
        r: b.method_with("R", data).unwrap(),
        cr: b.method("CR").unwrap(),
        ow: b.method("OW").unwrap(),
        w: b.method_with("W", data).unwrap(),
        cw: b.method("CW").unwrap(),
    };
    let d = b.data_witnesses(data, 1).unwrap()[0];
    b.class_witnesses(objects, 1).unwrap();
    World { u: b.freeze(), o, c1, c2, objects, m, d }
}

/// The per-caller bracketing viewpoint (`Read2`-style, both modes).
fn per_caller_spec(wd: &World) -> Specification {
    let alpha = [wd.m.or_, wd.m.r, wd.m.cr, wd.m.ow, wd.m.w, wd.m.cw]
        .iter()
        .fold(EventSet::empty(&wd.u), |acc, &mth| {
            acc.union(&EventPattern::call(wd.objects, wd.o, mth).to_set(&wd.u))
        });
    let (u, o, m) = (Arc::clone(&wd.u), wd.o, wd.m);
    let ts = TraceSet::predicate("per-caller bracketing", move |h: &Trace| {
        h.callers().into_iter().all(|x| {
            let re = Re::alt([
                Re::seq([
                    Re::lit(Template::call(x, o, m.ow)),
                    Re::alt([
                        Re::lit(Template::call(x, o, m.w)),
                        Re::lit(Template::call(x, o, m.r)),
                    ])
                    .star(),
                    Re::lit(Template::call(x, o, m.cw)),
                ]),
                Re::seq([
                    Re::lit(Template::call(x, o, m.or_)),
                    Re::lit(Template::call(x, o, m.r)).star(),
                    Re::lit(Template::call(x, o, m.cr)),
                ]),
            ])
            .star();
            prs(&u, &h.project_caller(x), &re)
        })
    });
    Specification::new("PerCaller", [wd.o], alpha, ts).unwrap()
}

/// The exclusive-writer viewpoint (`Write` of Example 1).
fn exclusive_writer_spec(wd: &World) -> Specification {
    let alpha = [wd.m.ow, wd.m.w, wd.m.cw].iter().fold(EventSet::empty(&wd.u), |acc, &mth| {
        acc.union(&EventPattern::call(wd.objects, wd.o, mth).to_set(&wd.u))
    });
    let x = VarId(0);
    let re = Re::seq([
        Re::lit(Template::call(x, wd.o, wd.m.ow)),
        Re::lit(Template::call(x, wd.o, wd.m.w)).star(),
        Re::lit(Template::call(x, wd.o, wd.m.cw)),
    ])
    .bind(x, wd.objects)
    .star();
    Specification::new("ExclusiveWriter", [wd.o], alpha, TraceSet::prs(re)).unwrap()
}

fn report(name: &str, trace: &Trace, spec: Specification) {
    let mut monitor = Monitor::new(spec);
    match monitor.observe_trace(trace) {
        None => println!(
            "  [{name}] viewpoint `{}`: ok over {} events",
            monitor.spec().name(),
            trace.len()
        ),
        Some(at) => println!(
            "  [{name}] viewpoint `{}`: VIOLATION at event #{at}: {}",
            monitor.spec().name(),
            trace.events()[at]
        ),
    }
}

fn main() {
    let wd = world();

    println!("== run 1: one well-behaved client (deterministic, seed 42) ==");
    let mut rt = DeterministicRuntime::new(42);
    rt.add_object(Box::new(PassiveServer::new(wd.o)));
    rt.add_object(Box::new(RwClient::new(wd.c1, wd.o, wd.m, wd.d)));
    let t1 = rt.run(40);
    println!("  trace: {} events", t1.len());
    report("run1", &t1, per_caller_spec(&wd));
    report("run1", &t1, exclusive_writer_spec(&wd));

    println!("\n== run 2: two independent clients — viewpoints diverge ==");
    let mut rt = DeterministicRuntime::new(43);
    rt.add_object(Box::new(PassiveServer::new(wd.o)));
    rt.add_object(Box::new(RwClient::new(wd.c1, wd.o, wd.m, wd.d)));
    rt.add_object(Box::new(RwClient::new(wd.c2, wd.o, wd.m, wd.d)));
    let t2 = rt.run(60);
    println!("  trace: {} events", t2.len());
    report("run2", &t2, per_caller_spec(&wd));
    report("run2", &t2, exclusive_writer_spec(&wd));
    println!("  (uncoordinated clients keep per-caller discipline but");
    println!("   can overlap write sessions: the stronger viewpoint fails)");

    println!("\n== run 3: a faulty client under the monitor ==");
    let mut rt = DeterministicRuntime::new(44);
    rt.add_object(Box::new(PassiveServer::new(wd.o)));
    rt.add_object(Box::new(FaultyClient::new(wd.c1, wd.o, wd.m, wd.d, 30)));
    let t3 = rt.run(60);
    report("run3", &t3, per_caller_spec(&wd));

    println!("\n== run 4: real threads (mpsc channels) ==");
    let mut rt = ThreadedRuntime::new(7);
    rt.add_object(Box::new(PassiveServer::new(wd.o)));
    rt.add_object(Box::new(RwClient::new(wd.c1, wd.o, wd.m, wd.d)));
    let t4 = rt.run(40);
    println!("  linearized {} events from the concurrent run", t4.len());
    report("run4", &t4, per_caller_spec(&wd));
}
