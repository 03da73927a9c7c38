//! The layer ladder: one dataset (`ds0`) measured at every public boundary
//! from `read_xtc` up to a loopback `ada-client`, from outside. A rung is
//! the median of ≥ 30 calls of one entry point (≥ 2,000 for µs-scale
//! ones), each call a root span with one child span per function it is
//! made of. A layer's self time is the difference between its rung and the
//! rungs beneath it. Results go through `std::hint::black_box`; no return
//! type is named, so the rung entry points only have to stay
//! source-compatible.

use crate::fixture::{Dataset, Reference, Stack, CLIENT_NAME, NFRAMES};
use crate::run::Budget;
use crate::stats::median;
use crate::trace::{request_id, Tracer};
use crate::workloads::{SAMPLING_CACHE_BYTES, WINDOW};
use ada_cache::{CacheConfig, CacheKey, DecodedCache, DecodedDropping};
use ada_client::{Client, ClientConfig};
use ada_mdformats::xtc::{write_xtc, DEFAULT_PRECISION};
use ada_mdformats::xtcf::{decode_chunk, parse_directory};
use ada_mdformats::{read_xtc, write_xtcf};
use ada_mdmodel::Tag;
use ada_proto::{
    encode_frame, read_frame, RequestBody, RequestEnvelope, ResponseBody, ResponseEnvelope,
    WireQueryReport, DEFAULT_MAX_FRAME,
};
use ada_server::{Server, ServerConfig};
use std::hint::black_box;
use std::io::Cursor;
use std::sync::Arc;

/// Calls per millisecond-scale rung.
const MS_CALLS: usize = 30;
/// Calls per microsecond-scale rung.
const US_CALLS: usize = 2048;
/// Lane the ladder's request ids carry, apart from the op streams' 0 and 1.
const LADDER_LANE: usize = 2;

/// One per-layer metric: name, value, unit, calls behind the value.
pub type Metric = (&'static str, f64, &'static str, usize);

/// Rung runner: calls an entry point `n` times, one request id per call.
struct Rungs<'a> {
    tracer: &'a Tracer,
    budget: Budget,
    next_request: u64,
}

impl Rungs<'_> {
    /// Median duration in nanoseconds of `calls` calls of `f`, after one
    /// untimed call. Each call is a root span; `f` gets that span's id and
    /// the request id to open child spans with.
    fn rung<E: std::fmt::Display>(
        &mut self,
        name: &'static str,
        calls: usize,
        mut f: impl FnMut(u32, u64) -> Result<(), E>,
    ) -> Result<f64, String> {
        self.rung_prepared(name, calls, || Ok(()), |(), parent, req| f(parent, req))
    }

    /// [`Rungs::rung`] for an entry point that consumes its input or
    /// leaves something to clean up: `before` runs ahead of every call,
    /// outside the span, and hands its result to `f`.
    fn rung_prepared<I, E: std::fmt::Display>(
        &mut self,
        name: &'static str,
        calls: usize,
        mut before: impl FnMut() -> Result<I, String>,
        mut f: impl FnMut(I, u32, u64) -> Result<(), E>,
    ) -> Result<f64, String> {
        f(before()?, 0, 0).map_err(|e| format!("{name} (warm-up): {e}"))?;
        let mut ns = Vec::with_capacity(calls);
        for _ in 0..self.budget.scaled(calls) {
            let input = before()?;
            self.next_request += 1;
            let req = request_id(LADDER_LANE, self.next_request);
            let root = self.tracer.open(name, 0, req);
            let out = f(input, root.id, req);
            ns.push(self.tracer.close(root) as f64);
            out.map_err(|e| format!("{name}: {e}"))?;
        }
        Ok(median(&ns))
    }
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn mib_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / (1u64 << 20) as f64 / (ns / 1e9)
}

/// Run every rung on `ds` and return the per-layer metrics.
pub fn run(
    ds: &Dataset,
    reference: &Reference,
    tracer: &Tracer,
    budget: Budget,
) -> Result<Vec<Metric>, String> {
    let mut r = Rungs {
        tracer,
        budget,
        next_request: 0,
    };
    let t = tracer;
    let tag_p = Tag::protein();
    let mut out: Vec<Metric> = Vec::new();
    let (n_ms, n_us) = (budget.scaled(MS_CALLS), budget.scaled(US_CALLS));
    // Coordinate payload sizes: 12 bytes per atom per frame.
    let raw_full = reference.full.natoms() * 12 * NFRAMES;
    let raw_p = reference.p.natoms() * 12 * NFRAMES;

    // ---- mdformats: the XTC codec -------------------------------------
    let read_xtc_ns = r.rung("mdformats.read_xtc", MS_CALLS, |_, _| {
        read_xtc(black_box(&ds.xtc_bytes)).map(|t| drop(black_box(t)))
    })?;
    out.push(("mdformats.read_xtc_ms", ms(read_xtc_ns), "ms", n_ms));
    out.push((
        "mdformats.read_xtc_mib_per_s",
        mib_per_s(raw_full, read_xtc_ns),
        "MiB/s",
        n_ms,
    ));
    let mut xtc_p_len = 0;
    let write_xtc_ns = r.rung("mdformats.write_xtc", MS_CALLS, |_, _| {
        write_xtc(black_box(&reference.p), DEFAULT_PRECISION)
            .map(|b| xtc_p_len = black_box(b).len())
    })?;
    out.push(("mdformats.write_xtc_ms", ms(write_xtc_ns), "ms", n_ms));
    out.push((
        "mdformats.xtc_bytes_per_raw_byte",
        xtc_p_len as f64 / raw_p as f64,
        "ratio",
        1,
    ));

    // ---- the default stack, cache off, ds0 ingested --------------------
    let stack = Stack::new(CacheConfig::default(), None);
    stack.seed(std::slice::from_ref(ds))?;
    let name = ds.name.as_str();

    // ---- plfs: index + one read per dropping ---------------------------
    // Returns the droppings' bytes so the decode rungs below have inputs.
    let read_droppings = |tag: Option<&str>, parent: u32, req: u64| {
        let records = t.time("plfs.index", parent, req, || stack.containers.index(name));
        let records = records.map_err(|e| e.to_string())?;
        let mut contents = Vec::new();
        for rec in records
            .iter()
            .filter(|rec| tag.is_none_or(|want| rec.tag == want))
        {
            let c = t.time("plfs.read_dropping", parent, req, || {
                stack.containers.read_dropping(rec)
            });
            contents.push(c.map_err(|e| e.to_string())?.0);
        }
        Ok::<_, String>(contents)
    };
    let mut droppings_p = Vec::new();
    let plfs_read_ns = r.rung("plfs.read", MS_CALLS, |parent, req| {
        read_droppings(Some("p"), parent, req).map(|c| droppings_p = black_box(c))
    })?;
    let mut droppings_all = Vec::new();
    let plfs_read_all_ns = r.rung("plfs.read_all", MS_CALLS, |parent, req| {
        read_droppings(None, parent, req).map(|c| droppings_all = black_box(c))
    })?;
    let stored: u64 = stack
        .containers
        .bytes_by_backend(name)
        .map_err(|e| e.to_string())?
        .values()
        .sum();
    out.push(("plfs.read_ms", ms(plfs_read_ns), "ms", n_ms));
    out.push(("plfs.read_all_ms", ms(plfs_read_all_ns), "ms", n_ms));
    out.push(("plfs.read_ops", droppings_p.len() as f64, "count", 1));
    out.push((
        "plfs.read_bytes",
        droppings_p.iter().map(|c| c.len()).sum::<u64>() as f64,
        "bytes",
        1,
    ));
    out.push((
        "plfs.stored_bytes_per_raw_byte",
        stored as f64 / raw_full as f64,
        "ratio",
        1,
    ));

    // ---- mdformats: the XTCF dropping codec ----------------------------
    let decode = |contents: &[ada_simfs::Content], parent: u32, req: u64| {
        for c in contents {
            let bytes = c.as_real().ok_or("dropping is not real bytes")?;
            let dir = t.time("xtcf.parse_directory", parent, req, || {
                parse_directory(bytes)
            });
            let dir = dir
                .map_err(|e| e.to_string())?
                .ok_or("dropping has no chunk directory")?;
            for chunk in 0..dir.nchunks() {
                let frames = t.time("xtcf.decode_chunk", parent, req, || {
                    decode_chunk(bytes, &dir, chunk)
                });
                black_box(frames.map_err(|e| e.to_string())?);
            }
        }
        Ok::<_, String>(())
    };
    let decode_ns = r.rung("mdformats.xtcf_decode", MS_CALLS, |parent, req| {
        decode(&droppings_p, parent, req)
    })?;
    let decode_all_ns = r.rung("mdformats.xtcf_decode_all", MS_CALLS, |parent, req| {
        decode(&droppings_all, parent, req)
    })?;
    out.push(("mdformats.xtcf_decode_ms", ms(decode_ns), "ms", n_ms));
    out.push((
        "mdformats.xtcf_decode_mib_per_s",
        mib_per_s(raw_p, decode_ns),
        "MiB/s",
        n_ms,
    ));
    out.push((
        "mdformats.xtcf_decode_all_ms",
        ms(decode_all_ns),
        "ms",
        n_ms,
    ));
    let reference_m = reference
        .full
        .subset(&ds.protein.complement(reference.full.natoms()));
    let encode_ns = r.rung("mdformats.xtcf_encode", MS_CALLS, |_, _| {
        write_xtcf(black_box(&reference.p)).map(|b| drop(black_box(b)))
    })?;
    let encode_all_ns = r.rung("mdformats.xtcf_encode_all", MS_CALLS, |parent, req| {
        for part in [&reference.p, &reference_m] {
            let bytes = t.time("xtcf.write_xtcf", parent, req, || {
                write_xtcf(black_box(part))
            });
            black_box(bytes.map_err(|e| e.to_string())?);
        }
        Ok::<_, String>(())
    })?;
    out.push(("mdformats.xtcf_encode_ms", ms(encode_ns), "ms", n_ms));
    out.push((
        "mdformats.xtcf_encode_all_ms",
        ms(encode_all_ns),
        "ms",
        n_ms,
    ));

    // ---- core: Ada's public ops, cache off -----------------------------
    let ada = stack.ada();
    let (mut sim_read_ns, mut sim_indexer_ns) = (0u128, 0u128);
    let query_tag_ns = r.rung("core.query_tag", MS_CALLS, |_, _| {
        ada.query(name, Some(&tag_p)).map(|rep| {
            sim_read_ns = rep.read.0;
            sim_indexer_ns = rep.indexer.0;
            drop(black_box(rep));
        })
    })?;
    let query_all_ns = r.rung("core.query_all", MS_CALLS, |_, _| {
        ada.query(name, None).map(|rep| drop(black_box(rep)))
    })?;
    // The serial reference beside the parallel default (`query_threads: 0`).
    let serial = Stack::new(CacheConfig::default(), Some(0));
    serial.seed(std::slice::from_ref(ds))?;
    let query_all_serial_ns = r.rung("core.query_all_serial", MS_CALLS, |_, _| {
        serial
            .ada()
            .query(name, None)
            .map(|rep| drop(black_box(rep)))
    })?;
    drop(serial);
    let mut window = 0;
    let mut next_window = || {
        window = (window + WINDOW) % NFRAMES;
        window..window + WINDOW
    };
    let range_miss_ns = r.rung("core.query_range_miss", MS_CALLS, |_, _| {
        ada.query_range(name, &tag_p, next_window(), 1)
            .map(|rep| drop(black_box(rep)))
    })?;
    // Ingest consumes its input and leaves a dataset behind: building the
    // one and deleting the other are the harness's, outside the span.
    let mut fresh = 0u32;
    let mut fresh_input = || {
        if fresh > 0 {
            ada.delete_dataset(&format!("fresh{fresh}"))
                .map_err(|e| format!("delete fresh{fresh}: {e}"))?;
        }
        fresh += 1;
        Ok((format!("fresh{fresh}"), ds.input()))
    };
    let core_ingest_ns = r.rung_prepared(
        "core.ingest",
        MS_CALLS,
        &mut fresh_input,
        |(fresh_name, input), _, _| {
            ada.ingest(&fresh_name, input)
                .map(|rep| drop(black_box(rep)))
        },
    )?;
    out.push(("core.query_tag_ms", ms(query_tag_ns), "ms", n_ms));
    out.push(("core.query_all_ms", ms(query_all_ns), "ms", n_ms));
    out.push((
        "core.query_all_serial_ms",
        ms(query_all_serial_ns),
        "ms",
        n_ms,
    ));
    out.push((
        "core.parallel_speedup",
        query_all_serial_ns / query_all_ns,
        "ratio",
        1,
    ));
    out.push(("core.query_range_miss_ms", ms(range_miss_ns), "ms", n_ms));
    out.push(("core.ingest_ms", ms(core_ingest_ns), "ms", n_ms));
    out.push((
        "core.query_tag_self_ms",
        ms(query_tag_ns - plfs_read_ns - decode_ns),
        "ms",
        n_ms,
    ));
    out.push((
        "core.query_all_self_ms",
        ms(query_all_ns - plfs_read_all_ns - decode_all_ns),
        "ms",
        n_ms,
    ));
    out.push((
        "core.ingest_self_ms",
        ms(core_ingest_ns - read_xtc_ns - encode_all_ns),
        "ms",
        n_ms,
    ));
    out.push(("core.sim_read_ms", sim_read_ns as f64 / 1e6, "ms", 1));
    out.push(("core.sim_indexer_ms", sim_indexer_ns as f64 / 1e6, "ms", 1));

    // ---- frontend: the same ops through admission ----------------------
    let fe = &stack.frontend;
    let fe_query_tag_ns = r.rung("frontend.query_tag", MS_CALLS, |_, _| {
        fe.query(CLIENT_NAME, name, Some(&tag_p))
            .map(|rep| drop(black_box(rep)))
    })?;
    let fe_ingest_ns = r.rung_prepared(
        "frontend.ingest",
        MS_CALLS,
        &mut fresh_input,
        |(fresh_name, input), _, _| {
            fe.ingest(CLIENT_NAME, &fresh_name, input)
                .map(|rep| drop(black_box(rep)))
        },
    )?;
    out.push(("frontend.query_tag_ms", ms(fe_query_tag_ns), "ms", n_ms));
    out.push(("frontend.ingest_ms", ms(fe_ingest_ns), "ms", n_ms));

    // ---- proto: response and request codecs, no socket -----------------
    let report = ada.query(name, Some(&tag_p)).map_err(|e| e.to_string())?;
    let mut frame = Vec::new();
    let encode_resp_ns = r.rung("proto.encode_response", MS_CALLS, |parent, req| {
        let wire = t.time("proto.from_report", parent, req, || {
            WireQueryReport::from_report(black_box(&report))
        });
        let env = ResponseEnvelope {
            id: req,
            body: ResponseBody::Query(wire.map_err(|e| e.to_string())?),
        };
        let payload = t.time("proto.envelope_encode", parent, req, || env.encode());
        let framed = t.time("proto.encode_frame", parent, req, || encode_frame(&payload));
        frame = framed.map_err(|e| e.to_string())?;
        Ok::<_, String>(())
    })?;
    let decode_resp_ns = r.rung("proto.decode_response", MS_CALLS, |parent, req| {
        let payload = t.time("proto.read_frame", parent, req, || {
            read_frame(&mut Cursor::new(black_box(&frame)), DEFAULT_MAX_FRAME)
        });
        let payload = payload.map_err(|e| e.to_string())?.ok_or("empty stream")?;
        let env = t.time("proto.envelope_decode", parent, req, || {
            ResponseEnvelope::decode(&payload)
        });
        let ResponseBody::Query(wire) = env.map_err(|e| e.to_string())?.body else {
            return Err("response is not a query report".to_string());
        };
        let traj = t.time("proto.trajectory", parent, req, || wire.trajectory());
        black_box(traj.map_err(|e| e.to_string())?);
        Ok(())
    })?;
    let request_ns = r.rung("proto.request_roundtrip", US_CALLS, |_, req| {
        let env = RequestEnvelope {
            id: req,
            client: CLIENT_NAME.to_string(),
            trace_id: 0,
            deadline_ns: 0,
            body: RequestBody::Query {
                dataset: name.to_string(),
                tag: Some("p".to_string()),
            },
        };
        let framed = encode_frame(&env.encode()).map_err(|e| e.to_string())?;
        let payload = read_frame(&mut Cursor::new(&framed), DEFAULT_MAX_FRAME)
            .map_err(|e| e.to_string())?
            .ok_or("empty stream")?;
        black_box(RequestEnvelope::decode(&payload).map_err(|e| e.to_string())?);
        Ok::<_, String>(())
    })?;
    out.push(("proto.encode_response_ms", ms(encode_resp_ns), "ms", n_ms));
    out.push(("proto.decode_response_ms", ms(decode_resp_ns), "ms", n_ms));
    out.push(("proto.request_roundtrip_us", us(request_ns), "us", n_us));
    out.push(("proto.response_bytes", frame.len() as f64, "bytes", 1));
    out.push((
        "proto.wire_bytes_per_payload_byte",
        frame.len() as f64 / raw_p as f64,
        "ratio",
        1,
    ));
    drop(report);

    // ---- server + client: the same query over loopback TCP -------------
    let mut server = Server::start(Arc::clone(fe), ServerConfig::default())
        .map_err(|e| format!("server start: {e}"))?;
    let client = Client::new(server.local_addr().to_string(), ClientConfig::default());
    let ping_ns = r.rung("client.ping", US_CALLS, |_, _| client.ping())?;
    let client_query_tag_ns = r.rung("client.query_tag", MS_CALLS, |parent, req| {
        let rep = t.time("client.query", parent, req, || {
            client.query(name, Some("p"))
        });
        let rep = rep.map_err(|e| e.to_string())?;
        let traj = t.time("proto.trajectory", parent, req, || rep.trajectory());
        black_box(traj.map_err(|e| e.to_string())?);
        Ok::<_, String>(())
    })?;
    drop(client);
    server.shutdown();
    out.push(("client.query_tag_ms", ms(client_query_tag_ns), "ms", n_ms));
    out.push(("client.ping_us", us(ping_ns), "us", n_us));
    out.push((
        "server.transport_ms",
        ms(client_query_tag_ns - fe_query_tag_ns - encode_resp_ns - decode_resp_ns),
        "ms",
        n_ms,
    ));
    drop(stack);

    // ---- cache on: the hit path through core and frontend --------------
    let hot = Stack::new(CacheConfig::with_capacity(SAMPLING_CACHE_BYTES), None);
    hot.seed(std::slice::from_ref(ds))?;
    for _ in 0..3 * (NFRAMES / WINDOW) {
        hot.ada()
            .query_range(name, &tag_p, next_window(), 1)
            .map_err(|e| format!("cache warm-up: {e}"))?;
    }
    let before = hot.ada().cache_stats();
    let range_hit_ns = r.rung("core.query_range_hit", US_CALLS, |_, _| {
        hot.ada()
            .query_range(name, &tag_p, next_window(), 1)
            .map(|rep| drop(black_box(rep)))
    })?;
    let fe_range_hit_ns = r.rung("frontend.query_range_hit", US_CALLS, |_, _| {
        hot.frontend
            .query_range(CLIENT_NAME, name, &tag_p, next_window(), 1)
            .map(|rep| drop(black_box(rep)))
    })?;
    let after = hot.ada().cache_stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    out.push(("core.query_range_hit_us", us(range_hit_ns), "us", n_us));
    out.push((
        "frontend.query_range_hit_us",
        us(fe_range_hit_ns),
        "us",
        n_us,
    ));
    out.push((
        "frontend.handoff_us",
        us(fe_range_hit_ns - range_hit_ns),
        "us",
        n_us,
    ));
    out.push((
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
        1,
    ));
    out.push((
        "cache.evictions",
        (after.evictions - before.evictions) as f64,
        "count",
        1,
    ));
    out.push((
        "cache.bypasses",
        (after.bypasses - before.bypasses) as f64,
        "count",
        1,
    ));
    out.push((
        "cache.bytes_decoded",
        (after.bytes_decoded - before.bytes_decoded) as f64,
        "bytes",
        1,
    ));
    out.push((
        "cache.resident_mib",
        after.resident_bytes as f64 / (1u64 << 20) as f64,
        "MiB",
        1,
    ));
    drop(hot);

    // ---- cache: a harness-owned DecodedCache ---------------------------
    // Four frames per entry, so every key of the insert rung stays resident
    // for the get rung (2,049 x 42 KB, well inside each shard's budget).
    let cache = DecodedCache::new(CacheConfig::with_capacity(SAMPLING_CACHE_BYTES));
    let chunk = Arc::new(DecodedDropping::complete(
        reference.p.frames[..4].to_vec(),
        reference.p.natoms(),
    ));
    let mut key = 0u64;
    let insert_ns = r.rung("cache.insert", US_CALLS, |_, _| {
        key += 1;
        black_box(cache.insert(CacheKey::new(name, "p", key), &chunk, u64::MAX));
        Ok::<_, String>(())
    })?;
    let resident = key;
    let get_ns = r.rung("cache.get", US_CALLS, |_, _| {
        key = key % resident + 1;
        black_box(cache.get(&CacheKey::new(name, "p", key)))
            .map(drop)
            .ok_or("a key inserted within the budget is not resident")
    })?;
    out.push(("cache.get_us", us(get_ns), "us", n_us));
    out.push(("cache.insert_us", us(insert_ns), "us", n_us));
    Ok(out)
}
