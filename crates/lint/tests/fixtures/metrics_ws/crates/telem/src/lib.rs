#![forbid(unsafe_code)]
//! Metric-name fixture: registered, unregistered, dynamic, and test-only
//! names for the `metric-name-registered` pass. Lexed, never compiled.

pub fn record_metrics(reg: &Registry, ctx: &TraceContext, op: &str) {
    reg.counter("app.requests").inc();
    reg.gauge("app.depth").set(1);
    let _s = ctx.span("app.stage");
    reg.histogram("app.unknown_ns").record(1);
    let (_c, _g) = root("app.trace");
    reg.counter(&format!("app.{}.ok", op)).inc();
}

#[cfg(test)]
mod tests {
    #[test]
    fn scratch_names_are_exempt() {
        reg.counter("test.scratch").inc();
    }
}
