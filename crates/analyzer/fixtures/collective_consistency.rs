//@ path: crates/comm/src/fixture_consistency.rs
fn leader_path(c: &impl Comm) {
    c.barrier();
}
fn worker_path(c: &impl Comm, v: &mut [f64]) {
    c.allreduce(v, ReduceOp::Sum);
}
fn drive(c: &impl Comm, v: &mut [f64]) {
    if c.rank() == 0 {
        leader_path(c);
    } else {
        worker_path(c, v);
    }
}
fn symmetric(c: &impl Comm, v: &mut [f64]) {
    if c.rank() == 0 {
        v[0] = 1.0;
    } else {
        v[0] = 2.0;
    }
    c.barrier();
}
fn early_out(c: &impl Comm, v: &mut [f64]) {
    if c.rank() == 0 {
        return;
    }
    c.allreduce(v, ReduceOp::Sum);
}
struct Plan;
impl Plan {
    fn new(c: &impl Comm) -> Plan {
        c.barrier();
        Plan
    }
}
fn scratch_on_leader(c: &impl Comm, v: &mut [f64]) {
    let _buf: Vec<f64> = if c.rank() == 0 { Vec::new() } else { vec![0.0] };
    let _plan = Plan::new(c);
    c.allreduce(v, ReduceOp::Sum);
}
fn plan_on_leader(c: &impl Comm) {
    if c.rank() == 0 {
        let _plan = Plan::new(c);
    }
}
