//! The `zolcd` wire protocol: length-prefixed JSON frames and the
//! canonical codecs for job requests and results.
//!
//! # Frame layout
//!
//! Every message — request or response — is one **frame**: a 4-byte
//! big-endian payload length followed by that many bytes of UTF-8 JSON.
//! Frames longer than [`MAX_FRAME`] bytes are rejected before any
//! allocation, so a corrupt length prefix cannot balloon the server.
//! A connection carries any number of frames back to back; a clean EOF
//! between frames ends the conversation.
//!
//! A frame is sent in one write, and both ends set `TCP_NODELAY`. Under
//! Nagle's algorithm a short segment queued behind an unacknowledged one
//! waits for the peer's delayed ACK, about 40 ms: a prefix and payload
//! written separately would pay that on every frame, and off loopback a
//! frame longer than one segment could still pay it for its short tail.
//!
//! # Requests and responses
//!
//! A request is a JSON object with an `"op"` field:
//!
//! | op         | payload                                   |
//! |------------|-------------------------------------------|
//! | `ping`     | —                                         |
//! | `stats`    | —                                         |
//! | `retarget` | `binary` (encoded text words), `data` (bytes), `config` (ZOLC configuration) |
//! | `lint`     | `binary` (encoded text words), `data` (bytes), optional `config` (retarget on it first, lint against the image) |
//! | `sweep`    | `config` (sweep configuration)            |
//! | `shutdown` | —                                         |
//!
//! A response is `{"ok":true,...}` on success or
//! `{"ok":false,"error":"..."}` on failure. Job responses carry the
//! result under `"result"` and are **byte-identical** whether the
//! answer was computed or served from cache — there is deliberately no
//! "cached" marker, so cache hits are observable only through `stats`.
//!
//! # Canonicalization
//!
//! Cache keys never hash raw request bytes: requests are decoded, then
//! re-encoded through the canonical constructors here, so two clients
//! that format the same job differently (field order, whitespace,
//! redundant fields on named configuration variants) still share one
//! cache entry.

use std::io::{self, Read, Write};
use std::sync::Arc;
use zolc_bench::json::Json;
use zolc_bench::{PointSummary, SweepPoint, SweepReport};
use zolc_cfg::{LintReport, Retargeted};
use zolc_core::{ZolcConfig, ZolcVariant};
use zolc_gen::GenConfig;
use zolc_isa::Program;

/// Hard cap on one frame's payload, request or response (64 MiB —
/// comfortably above any sweep report, far below an allocation bomb).
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Reads one length-prefixed frame; `Ok(None)` on clean EOF at a frame
/// boundary.
///
/// # Errors
///
/// I/O errors from the underlying reader; [`io::ErrorKind::InvalidData`]
/// when the length prefix exceeds [`MAX_FRAME`];
/// [`io::ErrorKind::UnexpectedEof`] when the stream ends mid-frame.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    // A signal landing on this first read is not an error (`read_exact`
    // below already retries it); retry so an EINTR between frames does
    // not end the conversation.
    let n = loop {
        match r.read(&mut len) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            read => break read?,
        }
    };
    if n == 0 {
        return Ok(None);
    }
    r.read_exact(&mut len[n..])?;
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME} byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Writes one length-prefixed frame in a single `write_all`.
///
/// Prefix and payload go out in one buffer: written separately, the
/// payload would sit behind the prefix until the peer's delayed ACK
/// (Nagle's algorithm), about 40 ms per frame.
///
/// # Errors
///
/// I/O errors from the writer; [`io::ErrorKind::InvalidData`] when the
/// payload exceeds [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME} byte cap",
                payload.len()
            ),
        ));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// The success response wrapping an already-rendered result document.
///
/// The `result` string is spliced in verbatim — this is what makes a
/// cache hit byte-identical to the cold computation that populated it.
pub fn ok_response(result: &str) -> Vec<u8> {
    let mut out = String::with_capacity(result.len() + 16);
    out.push_str("{\"ok\":true,\"result\":");
    out.push_str(result);
    out.push('}');
    out.into_bytes()
}

/// The failure response for `error`.
pub fn err_response(error: &str) -> Vec<u8> {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::Str(error.to_owned())),
    ])
    .render()
    .into_bytes()
}

// ---- ZolcConfig ---------------------------------------------------------

/// The canonical JSON encoding of a controller configuration.
///
/// Named variants carry only their name; `custom` carries the four
/// capacity knobs. Decoding ignores redundant fields, so this is also
/// the canonical form cache keys are built from.
pub fn zolc_config_json(config: &ZolcConfig) -> Json {
    let name = match config.variant() {
        ZolcVariant::Micro => "micro",
        ZolcVariant::Lite => "lite",
        ZolcVariant::Full => "full",
        ZolcVariant::Custom => {
            return Json::Obj(vec![
                ("variant".into(), Json::Str("custom".into())),
                ("loops".into(), Json::u64(config.loops() as u64)),
                ("tasks".into(), Json::u64(config.tasks() as u64)),
                ("entries".into(), Json::u64(config.entry_slots() as u64)),
                ("exits".into(), Json::u64(config.exit_slots() as u64)),
            ]);
        }
    };
    Json::Obj(vec![("variant".into(), Json::Str(name.into()))])
}

/// Decodes a controller configuration (see [`zolc_config_json`]).
///
/// # Errors
///
/// A message naming the missing or invalid field, or the capacity error
/// from [`ZolcConfig::custom`].
pub fn parse_zolc_config(doc: &Json) -> Result<ZolcConfig, String> {
    let variant = doc
        .get("variant")
        .and_then(Json::as_str)
        .ok_or("config: missing `variant`")?;
    match variant {
        "micro" => Ok(ZolcConfig::micro()),
        "lite" => Ok(ZolcConfig::lite()),
        "full" => Ok(ZolcConfig::full()),
        "custom" => {
            let knob = |key: &str| -> Result<usize, String> {
                doc.get(key)
                    .and_then(Json::as_u64)
                    .map(|v| v as usize)
                    .ok_or(format!("config: custom variant needs integer `{key}`"))
            };
            ZolcConfig::custom(
                knob("loops")?,
                knob("tasks")?,
                knob("entries")?,
                knob("exits")?,
            )
            .map_err(|e| format!("config: {e}"))
        }
        other => Err(format!("config: unknown variant `{other}`")),
    }
}

// ---- GenConfig ----------------------------------------------------------

/// The canonical JSON encoding of the generator knobs.
pub fn gen_config_json(gen: &GenConfig) -> Json {
    Json::Obj(vec![
        ("max_top".into(), Json::u64(gen.max_top as u64)),
        ("max_depth".into(), Json::u64(gen.max_depth as u64)),
        ("max_children".into(), Json::u64(gen.max_children as u64)),
        ("max_body".into(), Json::u64(gen.max_body as u64)),
        ("max_trips".into(), Json::u64(u64::from(gen.max_trips))),
        ("max_loops".into(), Json::u64(gen.max_loops as u64)),
        ("reg_bounds".into(), Json::Bool(gen.reg_bounds)),
        ("dbnz".into(), Json::Bool(gen.dbnz)),
        ("skips".into(), Json::Bool(gen.skips)),
    ])
}

/// Decodes generator knobs; absent fields keep their defaults, so a
/// client may send only what it overrides.
///
/// # Errors
///
/// A message naming the field with a non-integer / non-boolean value.
pub fn parse_gen_config(doc: &Json) -> Result<GenConfig, String> {
    let mut gen = GenConfig::new();
    let int = |key: &str| -> Result<Option<u64>, String> {
        match doc.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_u64()
                .map(Some)
                .ok_or(format!("gen: `{key}` is not an integer")),
        }
    };
    let flag = |key: &str| -> Result<Option<bool>, String> {
        match doc.get(key) {
            None => Ok(None),
            Some(Json::Bool(b)) => Ok(Some(*b)),
            Some(_) => Err(format!("gen: `{key}` is not a boolean")),
        }
    };
    if let Some(v) = int("max_top")? {
        gen = gen.with_max_top(v as usize);
    }
    if let Some(v) = int("max_depth")? {
        gen = gen.with_max_depth(v as usize);
    }
    if let Some(v) = int("max_children")? {
        gen = gen.with_max_children(v as usize);
    }
    if let Some(v) = int("max_body")? {
        gen = gen.with_max_body(v as usize);
    }
    if let Some(v) = int("max_trips")? {
        gen = gen.with_max_trips(v as u32);
    }
    if let Some(v) = int("max_loops")? {
        gen = gen.with_max_loops(v as usize);
    }
    if let Some(v) = flag("reg_bounds")? {
        gen = gen.with_reg_bounds(v);
    }
    if let Some(v) = flag("dbnz")? {
        gen = gen.with_dbnz(v);
    }
    if let Some(v) = flag("skips")? {
        gen = gen.with_skips(v);
    }
    Ok(gen)
}

// ---- SweepConfig --------------------------------------------------------

/// The canonical JSON encoding of a sweep configuration.
pub fn sweep_config_json(cfg: &zolc_bench::SweepConfig) -> Json {
    Json::Obj(vec![
        ("programs".into(), Json::u64(cfg.programs as u64)),
        ("base_seed".into(), Json::u64(cfg.base_seed)),
        ("gen".into(), gen_config_json(&cfg.gen)),
        (
            "points".into(),
            Json::Arr(
                cfg.points
                    .iter()
                    .map(|p| {
                        Json::Obj(vec![
                            ("label".into(), Json::Str(p.label.clone())),
                            ("config".into(), zolc_config_json(&p.config)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("executor".into(), Json::Str(cfg.executor.to_string())),
    ])
}

/// Decodes a sweep configuration (see [`sweep_config_json`]); absent
/// fields keep the [`zolc_bench::SweepConfig::new`] defaults.
///
/// # Errors
///
/// A message naming the missing or invalid field, or
/// `"sweep: seed range overflows u64"` when `base_seed + programs` does
/// not fit a `u64` — the seeds of such a sweep would wrap.
pub fn parse_sweep_config(doc: &Json) -> Result<zolc_bench::SweepConfig, String> {
    let mut cfg = zolc_bench::SweepConfig::new();
    if let Some(v) = doc.get("programs") {
        cfg = cfg.with_programs(v.as_u64().ok_or("sweep: `programs` is not an integer")? as usize);
    }
    if let Some(v) = doc.get("base_seed") {
        cfg = cfg.with_base_seed(v.as_u64().ok_or("sweep: `base_seed` is not an integer")?);
    }
    if let Some(v) = doc.get("gen") {
        cfg = cfg.with_gen(parse_gen_config(v)?);
    }
    if let Some(v) = doc.get("points") {
        let arr = v.as_arr().ok_or("sweep: `points` is not an array")?;
        let mut points = Vec::with_capacity(arr.len());
        for p in arr {
            let label = p
                .get("label")
                .and_then(Json::as_str)
                .ok_or("sweep: point missing `label`")?;
            let config =
                parse_zolc_config(p.get("config").ok_or("sweep: point missing `config`")?)?;
            points.push(SweepPoint::new(label, config));
        }
        cfg = cfg.with_points(points);
    }
    if let Some(v) = doc.get("executor") {
        let name = v.as_str().ok_or("sweep: `executor` is not a string")?;
        let kind = name
            .parse()
            .map_err(|_| format!("sweep: unknown executor `{name}`"))?;
        cfg = cfg.with_executor(kind);
    }
    cfg.base_seed
        .checked_add(cfg.programs as u64)
        .ok_or("sweep: seed range overflows u64")?;
    Ok(cfg)
}

// ---- SweepReport --------------------------------------------------------

/// The canonical JSON encoding of a [`SweepReport`]: the result document
/// `zolcd` caches and serves for sweep jobs. Savings are written in
/// shortest round-trip form, so a client parses back the exact bits.
pub fn sweep_report_json(r: &SweepReport) -> Json {
    Json::Obj(vec![
        ("programs".into(), Json::u64(r.programs as u64)),
        ("cells".into(), Json::u64(r.cells as u64)),
        ("total_loops".into(), Json::u64(r.total_loops as u64)),
        (
            "points".into(),
            Json::Arr(r.points.iter().map(point_summary_json).collect()),
        ),
    ])
}

fn point_summary_json(p: &PointSummary) -> Json {
    Json::Obj(vec![
        ("label".into(), Json::Str(p.label.clone())),
        ("hw_loops".into(), Json::u64(p.hw_loops as u64)),
        ("unhandled".into(), Json::u64(p.unhandled as u64)),
        (
            // stored in Feature::ALL order as [handled, total] pairs
            "coverage".into(),
            Json::Arr(
                p.coverage
                    .iter()
                    .map(|&(_, handled, total)| {
                        Json::Arr(vec![Json::u64(handled as u64), Json::u64(total as u64)])
                    })
                    .collect(),
            ),
        ),
        (
            "savings".into(),
            Json::Arr(p.savings.iter().map(|&s| Json::f64(s)).collect()),
        ),
    ])
}

// ---- retarget jobs ------------------------------------------------------

/// Builds a retarget request: the program travels as its encoded text
/// words plus raw data bytes — exactly what an external toolchain that
/// only has the binary can produce.
pub fn retarget_request(program: &Program, config: &ZolcConfig) -> Json {
    Json::Obj(vec![
        ("op".into(), Json::Str("retarget".into())),
        (
            "binary".into(),
            Json::Arr(
                program
                    .text()
                    .iter()
                    .map(|i| Json::u64(u64::from(zolc_isa::encode(i))))
                    .collect(),
            ),
        ),
        (
            "data".into(),
            Json::Arr(
                program
                    .data()
                    .iter()
                    .map(|&b| Json::u64(u64::from(b)))
                    .collect(),
            ),
        ),
        ("config".into(), zolc_config_json(config)),
    ])
}

/// Builds a sweep request.
pub fn sweep_request(cfg: &zolc_bench::SweepConfig) -> Json {
    Json::Obj(vec![
        ("op".into(), Json::Str("sweep".into())),
        ("config".into(), sweep_config_json(cfg)),
    ])
}

/// Decodes a request's `binary`/`data` program fields; `op` names the
/// operation in error messages.
fn parse_program_fields(doc: &Json, op: &str) -> Result<Program, String> {
    let words = doc
        .get("binary")
        .and_then(Json::as_arr)
        .ok_or(format!("{op}: missing `binary` word array"))?;
    let mut text = Vec::with_capacity(words.len());
    for (i, w) in words.iter().enumerate() {
        let word = w
            .as_u64()
            .and_then(|v| u32::try_from(v).ok())
            .ok_or(format!("{op}: binary[{i}] is not a 32-bit word"))?;
        text.push(
            zolc_isa::decode(word).map_err(|e| format!("{op}: binary[{i}] ({word:#010x}): {e}"))?,
        );
    }
    let mut data = Vec::new();
    if let Some(bytes) = doc.get("data") {
        let bytes = bytes
            .as_arr()
            .ok_or(format!("{op}: `data` is not an array"))?;
        data.reserve(bytes.len());
        for (i, b) in bytes.iter().enumerate() {
            data.push(
                b.as_u64()
                    .and_then(|v| u8::try_from(v).ok())
                    .ok_or(format!("{op}: data[{i}] is not a byte"))?,
            );
        }
    }
    Ok(Program::from_parts(text, data))
}

/// Decodes a retarget request's program (see [`retarget_request`]).
///
/// # Errors
///
/// A message naming the malformed field or the undecodable word.
pub fn parse_retarget_program(doc: &Json) -> Result<Program, String> {
    parse_program_fields(doc, "retarget")
}

// ---- lint jobs ----------------------------------------------------------

/// Builds a lint request. Like [`retarget_request`], the program
/// travels as encoded text words plus raw data bytes. With a `config`,
/// the daemon retargets the binary on that configuration first and
/// lints the *excised* program against its synthesized table image (so
/// the hardware back edges are part of the analyzed graph); without
/// one, the binary is linted as-is.
pub fn lint_request(program: &Program, config: Option<&ZolcConfig>) -> Json {
    let mut fields = vec![
        ("op".into(), Json::Str("lint".into())),
        (
            "binary".into(),
            Json::Arr(
                program
                    .text()
                    .iter()
                    .map(|i| Json::u64(u64::from(zolc_isa::encode(i))))
                    .collect(),
            ),
        ),
        (
            "data".into(),
            Json::Arr(
                program
                    .data()
                    .iter()
                    .map(|&b| Json::u64(u64::from(b)))
                    .collect(),
            ),
        ),
    ];
    if let Some(config) = config {
        fields.push(("config".into(), zolc_config_json(config)));
    }
    Json::Obj(fields)
}

/// Decodes a lint request's program (see [`lint_request`]).
///
/// # Errors
///
/// A message naming the malformed field or the undecodable word.
pub fn parse_lint_program(doc: &Json) -> Result<Program, String> {
    parse_program_fields(doc, "lint")
}

/// The canonical JSON encoding of a lint report: `clean`, the total
/// finding count, and one `{kind, addr, message}` object per finding in
/// report order (sorted by address, then kind).
pub fn lint_report_json(report: &LintReport) -> Json {
    Json::Obj(vec![
        ("clean".into(), Json::Bool(report.is_clean())),
        ("findings".into(), Json::u64(report.lints.len() as u64)),
        (
            "lints".into(),
            Json::Arr(
                report
                    .lints
                    .iter()
                    .map(|l| {
                        Json::Obj(vec![
                            ("kind".into(), Json::Str(l.kind.label().into())),
                            ("addr".into(), Json::u64(u64::from(l.addr))),
                            ("message".into(), Json::Str(l.message.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The canonical JSON encoding of a retargeting result: the excised,
/// relocated, self-initializing program (as encoded text words plus
/// data bytes) and the retargeting byproducts a caller needs to reason
/// about it. The synthesized table image itself is not carried — the
/// prepended initialization sequence already writes it.
pub fn retargeted_json(r: &Retargeted) -> Json {
    Json::Obj(vec![
        (
            "text".into(),
            Json::Arr(
                r.program
                    .text()
                    .iter()
                    .map(|i| Json::u64(u64::from(zolc_isa::encode(i))))
                    .collect(),
            ),
        ),
        (
            "data".into(),
            Json::Arr(
                r.program
                    .data()
                    .iter()
                    .map(|&b| Json::u64(u64::from(b)))
                    .collect(),
            ),
        ),
        ("excised".into(), Json::u64(r.excised as u64)),
        (
            "init_instructions".into(),
            Json::u64(r.init_instructions as u64),
        ),
        ("hw_loops".into(), Json::u64(r.counted.len() as u64)),
        (
            "unhandled".into(),
            Json::Arr(r.unhandled.iter().map(|&id| Json::u64(id as u64)).collect()),
        ),
        (
            "counter_regs".into(),
            Json::Arr(
                r.counter_regs
                    .iter()
                    .map(|rg| Json::u64(rg.index() as u64))
                    .collect(),
            ),
        ),
        ("scratch".into(), Json::u64(r.scratch.index() as u64)),
        (
            "notes".into(),
            Json::Arr(r.notes.iter().map(|n| Json::Str(n.clone())).collect()),
        ),
    ])
}

/// Reconstructs the runnable program from a decoded retarget *result*
/// (the `"result"` object of a successful response) — what a client
/// does to execute a daemon-retargeted binary locally.
///
/// # Errors
///
/// A message naming the malformed field or the undecodable word.
pub fn parse_retargeted_program(doc: &Json) -> Result<Arc<Program>, String> {
    let words = doc
        .get("text")
        .and_then(Json::as_arr)
        .ok_or("result: missing `text` word array")?;
    let mut text = Vec::with_capacity(words.len());
    for (i, w) in words.iter().enumerate() {
        let word = w
            .as_u64()
            .and_then(|v| u32::try_from(v).ok())
            .ok_or(format!("result: text[{i}] is not a 32-bit word"))?;
        text.push(zolc_isa::decode(word).map_err(|e| format!("result: text[{i}]: {e}"))?);
    }
    let mut data = Vec::new();
    if let Some(bytes) = doc.get("data").and_then(Json::as_arr) {
        for (i, b) in bytes.iter().enumerate() {
            data.push(
                b.as_u64()
                    .and_then(|v| u8::try_from(v).ok())
                    .ok_or(format!("result: data[{i}] is not a byte"))?,
            );
        }
    }
    Ok(Arc::new(Program::from_parts(text, data)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use zolc_bench::json;
    use zolc_sim::ExecutorKind;

    #[test]
    fn frames_roundtrip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"op\":\"ping\"}").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"{\"op\":\"ping\"}");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap(), None);

        let huge = (MAX_FRAME as u32 + 1).to_be_bytes();
        let mut r = &huge[..];
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    /// A writer that counts `write` calls and keeps the bytes.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        for len in [0, 1, 4 * 1024, 70 * 1024] {
            let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut w = CountingWriter::default();
            write_frame(&mut w, &payload).unwrap();
            assert_eq!(w.writes, 1, "{len}-byte payload took {} writes", w.writes);
            let mut r = &w.bytes[..];
            assert_eq!(read_frame(&mut r).unwrap().unwrap(), payload);
            assert_eq!(read_frame(&mut r).unwrap(), None);
        }
    }

    #[test]
    fn an_interrupted_length_read_is_retried() {
        /// Fails its first `read` with `Interrupted`, then reads `inner`.
        struct InterruptOnce<'a> {
            interrupted: bool,
            inner: &'a [u8],
        }

        impl Read for InterruptOnce<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if !self.interrupted {
                    self.interrupted = true;
                    return Err(io::ErrorKind::Interrupted.into());
                }
                self.inner.read(buf)
            }
        }

        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"op\":\"ping\"}").unwrap();
        let mut r = InterruptOnce {
            interrupted: false,
            inner: &buf,
        };
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"{\"op\":\"ping\"}");
        assert!(r.interrupted);
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_hang() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abcdef").unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn zolc_config_roundtrips_every_variant() {
        for config in [
            ZolcConfig::micro(),
            ZolcConfig::lite(),
            ZolcConfig::full(),
            ZolcConfig::custom(2, 8, 1, 0).unwrap(),
        ] {
            let doc = zolc_config_json(&config);
            let back = parse_zolc_config(&doc).unwrap();
            assert_eq!(back, config, "{doc:?}");
        }
        assert!(parse_zolc_config(&Json::Obj(vec![])).is_err());
    }

    #[test]
    fn gen_and_sweep_configs_roundtrip_canonically() {
        let cfg = zolc_bench::SweepConfig::new()
            .with_programs(7)
            .with_base_seed(42)
            .with_gen(GenConfig::new().with_max_trips(24).with_dbnz(false))
            .with_points(vec![SweepPoint::new("lite", ZolcConfig::lite())])
            .with_executor(ExecutorKind::Functional);
        let doc = sweep_config_json(&cfg);
        let back = parse_sweep_config(&doc).unwrap();
        // canonical re-encoding is the identity — this is what cache
        // keys rely on
        assert_eq!(sweep_config_json(&back).render(), doc.render());
        assert_eq!(back.programs, 7);
        assert_eq!(back.gen.max_trips, 24);
        assert!(!back.gen.dbnz);
        assert_eq!(back.executor, ExecutorKind::Functional);
    }

    #[test]
    fn every_executor_tier_has_a_wire_name_that_roundtrips() {
        for kind in ExecutorKind::ALL {
            let doc = sweep_config_json(&zolc_bench::SweepConfig::new().with_executor(kind));
            assert_eq!(parse_sweep_config(&doc).unwrap().executor, kind);
        }
        let bad = json::parse(r#"{"executor":"superscalar"}"#).unwrap();
        assert_eq!(
            parse_sweep_config(&bad).unwrap_err(),
            "sweep: unknown executor `superscalar`"
        );
    }

    #[test]
    fn a_seed_range_past_u64_is_rejected() {
        let last = |programs: u64| {
            json::parse(&format!(
                r#"{{"base_seed":{},"programs":{programs}}}"#,
                u64::MAX - 2
            ))
            .unwrap()
        };
        assert_eq!(parse_sweep_config(&last(2)).unwrap().programs, 2);
        assert_eq!(
            parse_sweep_config(&last(3)).unwrap_err(),
            "sweep: seed range overflows u64"
        );
    }

    /// The sweep result bytes `zolcd` serves, pinned: the digests were
    /// recorded from the report encoder before it moved into this
    /// module, and the savings must parse back to the report's exact bits.
    #[test]
    fn sweep_report_bytes_are_pinned_and_savings_roundtrip_bit_exactly() {
        let two_points = zolc_bench::SweepConfig::new()
            .with_programs(10)
            .with_base_seed(300)
            .with_points(vec![
                SweepPoint::new("ZOLClite", ZolcConfig::lite()),
                SweepPoint::new("uZOLC", ZolcConfig::micro()),
            ]);
        // the four standard points on three seeds
        let standard = zolc_bench::SweepConfig::new()
            .with_programs(3)
            .with_base_seed(17);
        for (cfg, digest) in [
            (two_points, 0x45ed_819d_f249_5431),
            (standard, 0xea04_0702_67d4_5591),
        ] {
            let report = zolc_bench::run_sweep(&cfg);
            assert!(
                report.points.iter().all(|p| !p.savings.is_empty()),
                "the pin needs savings data"
            );
            let text = sweep_report_json(&report).render();
            assert_eq!(crate::cache::fnv1a(text.as_bytes()), digest, "{text}");

            let doc = json::parse(&text).unwrap();
            let points = doc.get("points").and_then(Json::as_arr).unwrap();
            assert_eq!(points.len(), report.points.len());
            for (p, summary) in points.iter().zip(&report.points) {
                let savings = p.get("savings").and_then(Json::as_arr).unwrap();
                assert_eq!(savings.len(), summary.savings.len());
                for (s, x) in savings.iter().zip(&summary.savings) {
                    assert_eq!(s.as_f64().unwrap().to_bits(), x.to_bits());
                }
            }
        }
    }

    #[test]
    fn retarget_program_roundtrips_through_the_wire_form() {
        let program = zolc_isa::assemble(
            "
            .data
            buf: .word 1, 2, 3
            .text
            li   r11, 5
      top:  addi r11, r11, -1
            bne  r11, r0, top
            halt
        ",
        )
        .unwrap();
        let req = retarget_request(&program, &ZolcConfig::lite());
        let doc = json::parse(&req.render()).unwrap();
        let back = parse_retarget_program(&doc).unwrap();
        assert_eq!(back.text(), program.text());
        assert_eq!(back.data(), program.data());
        let config = parse_zolc_config(doc.get("config").unwrap()).unwrap();
        assert_eq!(config, ZolcConfig::lite());
    }

    #[test]
    fn retargeted_results_reconstruct_the_program() {
        let program = zolc_isa::assemble(
            "
            li   r11, 5
      top:  addi r11, r11, -1
            bne  r11, r0, top
            halt
        ",
        )
        .unwrap();
        let r = zolc_cfg::retarget(&program, &ZolcConfig::lite()).unwrap();
        let doc = json::parse(&retargeted_json(&r).render()).unwrap();
        let back = parse_retargeted_program(&doc).unwrap();
        assert_eq!(back.text(), r.program.text());
        assert_eq!(back.data(), r.program.data());
        assert_eq!(doc.get("hw_loops").unwrap().as_u64(), Some(1));
    }
}
