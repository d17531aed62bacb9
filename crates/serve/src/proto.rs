//! The wire protocol: length-prefixed JSON frames and the campaign-matrix
//! serialization the coordinator ships to workers.
//!
//! Every frame is a 4-byte big-endian byte length followed by that many
//! bytes of UTF-8 JSON (the workspace subset — see `cfed_telemetry::json`).
//! Frames carry a `"t"` tag naming the message:
//!
//! | direction            | tag       | payload                                    |
//! |----------------------|-----------|--------------------------------------------|
//! | worker → coordinator | `hello`   | worker name, lease slots                   |
//! | coordinator → worker | `welcome` | run id, assigned worker id                 |
//! | coordinator → worker | `phase`   | phase index, label, serialized matrix      |
//! | coordinator → worker | `lease`   | phase, cell index, shard index, shard key  |
//! | worker → coordinator | `result`  | key, shard tallies (store record shape),   |
//! |                      |           | unit wall ms, cumulative event drops       |
//! | worker → coordinator | `fail`    | key, error message                         |
//! | worker → coordinator | `event`   | one forwarded telemetry event              |
//! | coordinator → worker | `bye`     | campaign over (worker drains and exits)    |
//! | worker → coordinator | `bye`     | worker is leaving (drained; no re-lease    |
//! |                      |           | needed for frames already sent)            |
//!
//! Results carry the exact JSON shape the result store persists
//! ([`cfed_runner::store::ShardTallies::to_json`]), so the coordinator
//! appends them without re-encoding — which is what keeps a multi-process
//! store byte-compatible with a single-process one.

use std::io::{Read, Write};

use cfed_core::TechniqueKind;
use cfed_dbt::{CheckPolicy, UpdateStyle};
use cfed_fault::AttackKind;
use cfed_runner::matrix::{CampaignMatrix, WorkloadSpec};
use cfed_telemetry::json::{obj, parse, Json};
use cfed_workloads::Scale;

/// Upper bound on a frame's byte length; anything larger is treated as a
/// corrupt stream rather than an allocation request.
pub const MAX_FRAME: usize = 64 << 20;

/// Writes one frame (length prefix + JSON bytes), flushing.
///
/// # Errors
///
/// Returns the I/O error message on a failed or short write.
pub fn write_frame(w: &mut impl Write, v: &Json) -> Result<(), String> {
    let body = v.render();
    let len = u32::try_from(body.len()).map_err(|_| "frame exceeds u32 length".to_string())?;
    if body.len() > MAX_FRAME {
        return Err(format!("frame of {} bytes exceeds MAX_FRAME", body.len()));
    }
    w.write_all(&len.to_be_bytes())
        .and_then(|()| w.write_all(body.as_bytes()))
        .and_then(|()| w.flush())
        .map_err(|e| format!("writing frame: {e}"))
}

/// Reads one frame. `Ok(None)` is a clean end-of-stream (the peer closed
/// between frames); EOF inside a frame is an error.
///
/// # Errors
///
/// Returns a message on I/O failure, oversized frames, or malformed JSON.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Json>, String> {
    let mut len_buf = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err("connection closed inside a frame header".to_string()),
            Ok(n) => got += n,
            Err(e) => return Err(format!("reading frame header: {e}")),
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(format!("frame of {len} bytes exceeds MAX_FRAME"));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(|e| format!("reading frame body: {e}"))?;
    let text = std::str::from_utf8(&body).map_err(|e| format!("frame is not UTF-8: {e}"))?;
    parse(text).map(Some).map_err(|e| format!("frame is not valid JSON: {e}"))
}

/// The `"t"` tag of a frame, or an error naming the problem.
///
/// # Errors
///
/// Returns a message when the frame has no string `"t"` field.
pub fn tag(v: &Json) -> Result<&str, String> {
    v.get("t").and_then(Json::as_str).ok_or_else(|| "frame has no \"t\" tag".to_string())
}

/// Renders a technique for the wire (`"baseline"` for `None`, otherwise
/// the `Display` name also used in store keys).
pub fn technique_to_str(technique: Option<TechniqueKind>) -> String {
    technique.map_or_else(|| "baseline".to_string(), |k| k.to_string())
}

/// Parses [`technique_to_str`] output.
///
/// # Errors
///
/// Returns a message naming the unknown technique.
pub fn technique_from_str(s: &str) -> Result<Option<TechniqueKind>, String> {
    match s {
        "baseline" => Ok(None),
        "CFCSS" => Ok(Some(TechniqueKind::Cfcss)),
        "ECCA" => Ok(Some(TechniqueKind::Ecca)),
        "ECF" => Ok(Some(TechniqueKind::Ecf)),
        "EdgCF" => Ok(Some(TechniqueKind::EdgCf)),
        "RCF" => Ok(Some(TechniqueKind::Rcf)),
        other => Err(format!("unknown technique {other:?}")),
    }
}

/// Parses an [`UpdateStyle`] display name.
///
/// # Errors
///
/// Returns a message naming the unknown style.
pub fn style_from_str(s: &str) -> Result<UpdateStyle, String> {
    match s {
        "Jcc" => Ok(UpdateStyle::Jcc),
        "CMOVcc" => Ok(UpdateStyle::CMov),
        other => Err(format!("unknown update style {other:?}")),
    }
}

/// Parses a [`CheckPolicy`] display name.
///
/// # Errors
///
/// Returns a message naming the unknown policy.
pub fn policy_from_str(s: &str) -> Result<CheckPolicy, String> {
    match s {
        "ALLBB" => Ok(CheckPolicy::AllBb),
        "RET-BE" => Ok(CheckPolicy::RetBe),
        "RET" => Ok(CheckPolicy::Ret),
        "END" => Ok(CheckPolicy::End),
        other => Err(format!("unknown check policy {other:?}")),
    }
}

fn scale_to_json(scale: Scale) -> Json {
    match scale {
        Scale::Test => Json::Str("test".to_string()),
        Scale::Full => Json::Str("full".to_string()),
        Scale::Custom(n) => Json::UInt(n),
    }
}

fn scale_from_json(v: &Json) -> Result<Scale, String> {
    if let Some(n) = v.as_u64() {
        return Ok(Scale::Custom(n));
    }
    match v.as_str() {
        Some("test") => Ok(Scale::Test),
        Some("full") => Ok(Scale::Full),
        other => Err(format!("unknown workload scale {other:?}")),
    }
}

fn workload_to_json(w: &WorkloadSpec) -> Json {
    match w {
        WorkloadSpec::Named { name, scale } => {
            obj(vec![("name", Json::Str(name.clone())), ("scale", scale_to_json(*scale))])
        }
        WorkloadSpec::Inline { name, source } => {
            obj(vec![("name", Json::Str(name.clone())), ("source", Json::Str(source.clone()))])
        }
    }
}

fn workload_from_json(v: &Json) -> Result<WorkloadSpec, String> {
    let name = v.get("name").and_then(Json::as_str).ok_or("workload missing name")?;
    if let Some(source) = v.get("source").and_then(Json::as_str) {
        return Ok(WorkloadSpec::inline(name, source));
    }
    let scale = scale_from_json(v.get("scale").ok_or("workload missing scale")?)?;
    Ok(WorkloadSpec::named(name, scale))
}

/// Renders an attack slot for the wire (`"none"` for fault cells,
/// otherwise the archetype name also used in store keys).
pub fn attack_to_str(attack: Option<AttackKind>) -> String {
    attack.map_or_else(|| "none".to_string(), |k| k.name().to_string())
}

/// Parses [`attack_to_str`] output.
///
/// # Errors
///
/// Returns a message naming the unknown archetype.
pub fn attack_from_str(s: &str) -> Result<Option<AttackKind>, String> {
    if s == "none" {
        return Ok(None);
    }
    AttackKind::from_name(s).map(Some).ok_or_else(|| format!("unknown attack archetype {s:?}"))
}

/// Serializes a matrix for the `phase` frame. The `attacks` field is
/// emitted only when it differs from the fault-only default `[None]`, so
/// frames for classic fault matrices are byte-identical to older builds.
pub fn matrix_to_json(m: &CampaignMatrix) -> Json {
    let mut fields = vec![
        ("workloads", Json::Arr(m.workloads.iter().map(workload_to_json).collect())),
        (
            "techniques",
            Json::Arr(m.techniques.iter().map(|&t| Json::Str(technique_to_str(t))).collect()),
        ),
        ("styles", Json::Arr(m.styles.iter().map(|s| Json::Str(s.to_string())).collect())),
        ("policies", Json::Arr(m.policies.iter().map(|p| Json::Str(p.to_string())).collect())),
        ("trials", Json::UInt(m.trials)),
        ("seed", Json::UInt(m.seed)),
    ];
    if m.attacks != vec![None] {
        fields.push((
            "attacks",
            Json::Arr(m.attacks.iter().map(|&a| Json::Str(attack_to_str(a))).collect()),
        ));
    }
    obj(fields)
}

/// Parses [`matrix_to_json`] output. The worker recomputes cell keys from
/// the reconstructed matrix and refuses leases whose key disagrees, so a
/// serialization mismatch can never silently corrupt a store.
///
/// # Errors
///
/// Returns a message naming the missing or malformed field.
pub fn matrix_from_json(v: &Json) -> Result<CampaignMatrix, String> {
    let arr = |k: &str| v.get(k).and_then(Json::as_arr).ok_or(format!("matrix missing {k}"));
    let num = |k: &str| v.get(k).and_then(Json::as_u64).ok_or(format!("matrix missing {k}"));
    let str_of = |item: &Json| {
        item.as_str().map(str::to_string).ok_or_else(|| "expected a string".to_string())
    };
    Ok(CampaignMatrix {
        workloads: arr("workloads")?.iter().map(workload_from_json).collect::<Result<_, _>>()?,
        techniques: arr("techniques")?
            .iter()
            .map(|t| technique_from_str(&str_of(t)?))
            .collect::<Result<_, _>>()?,
        styles: arr("styles")?
            .iter()
            .map(|s| style_from_str(&str_of(s)?))
            .collect::<Result<_, _>>()?,
        policies: arr("policies")?
            .iter()
            .map(|p| policy_from_str(&str_of(p)?))
            .collect::<Result<_, _>>()?,
        trials: num("trials")?,
        seed: num("seed")?,
        attacks: match v.get("attacks").and_then(Json::as_arr) {
            Some(items) => {
                items.iter().map(|a| attack_from_str(&str_of(a)?)).collect::<Result<_, _>>()?
            }
            None => vec![None],
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfed_runner::matrix::CampaignMatrix;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        let a = obj(vec![("t", Json::Str("hello".into())), ("slots", Json::UInt(4))]);
        let b = obj(vec![("t", Json::Str("bye".into()))]);
        write_frame(&mut buf, &a).unwrap();
        write_frame(&mut buf, &b).unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), a);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b);
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &obj(vec![("t", Json::Str("x".into()))])).unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = buf.as_slice();
        assert!(read_frame(&mut r).is_err());
    }

    /// A frame nested past the parser's depth limit is a read error, not a
    /// stack overflow of the reader thread.
    #[test]
    fn overly_nested_frame_is_an_error() {
        let body = "[".repeat(100_000);
        let mut buf = u32::try_from(body.len()).unwrap().to_be_bytes().to_vec();
        buf.extend_from_slice(body.as_bytes());
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
    }

    #[test]
    fn oversized_length_is_refused() {
        let mut buf = (u32::try_from(MAX_FRAME + 1).unwrap()).to_be_bytes().to_vec();
        buf.extend_from_slice(b"xx");
        let mut r = buf.as_slice();
        assert!(read_frame(&mut r).unwrap_err().contains("MAX_FRAME"));
    }

    #[test]
    fn matrix_roundtrips_with_identical_cell_keys() {
        let m = CampaignMatrix {
            workloads: vec![
                WorkloadSpec::named("164.gzip", Scale::Test),
                WorkloadSpec::named("181.mcf", Scale::Custom(40)),
                WorkloadSpec::inline("t", "fn main() { out(3); }"),
            ],
            techniques: vec![
                None,
                Some(TechniqueKind::Cfcss),
                Some(TechniqueKind::Ecca),
                Some(TechniqueKind::Ecf),
                Some(TechniqueKind::EdgCf),
                Some(TechniqueKind::Rcf),
            ],
            styles: vec![UpdateStyle::Jcc, UpdateStyle::CMov],
            policies: vec![
                CheckPolicy::AllBb,
                CheckPolicy::RetBe,
                CheckPolicy::Ret,
                CheckPolicy::End,
            ],
            trials: 500,
            seed: 0xCFED,
            attacks: vec![None],
        };
        let json = matrix_to_json(&m);
        assert!(json.get("attacks").is_none(), "default attacks must stay off the wire");
        let back = matrix_from_json(&json).unwrap();
        let keys: Vec<String> = m.cells().iter().map(cfed_runner::matrix::CellSpec::key).collect();
        let back_keys: Vec<String> =
            back.cells().iter().map(cfed_runner::matrix::CellSpec::key).collect();
        assert_eq!(keys, back_keys);
        assert_eq!(CampaignMatrix::digest(&m.cells()), CampaignMatrix::digest(&back.cells()));
    }

    #[test]
    fn attack_matrix_roundtrips_with_identical_cell_keys() {
        let m = CampaignMatrix::attacks(
            vec![WorkloadSpec::named("164.gzip", Scale::Test)],
            128,
            0xCFED,
        );
        let json = matrix_to_json(&m);
        assert!(json.get("attacks").is_some(), "attack matrices must ship their archetypes");
        let back = matrix_from_json(&json).unwrap();
        let keys: Vec<String> = m.cells().iter().map(cfed_runner::matrix::CellSpec::key).collect();
        let back_keys: Vec<String> =
            back.cells().iter().map(cfed_runner::matrix::CellSpec::key).collect();
        assert_eq!(keys, back_keys);
        assert_eq!(CampaignMatrix::digest(&m.cells()), CampaignMatrix::digest(&back.cells()));
    }

    #[test]
    fn unknown_names_are_rejected() {
        assert!(technique_from_str("XYZ").is_err());
        assert!(style_from_str("mov").is_err());
        assert!(policy_from_str("NONE").is_err());
        assert!(attack_from_str("stack-smash").is_err());
    }
}
