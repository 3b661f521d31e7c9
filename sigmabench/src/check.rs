//! Output checks: an HTTP 200 must carry exactly the outcome the same
//! model computes in process, compared on the wire encoding with the
//! two wall-clock fields (`spent_nanos`, `remaining_nanos`) zeroed —
//! the comparison `tests/server_http.rs` and the load lab's wire digest
//! make.

use jsonshim::Json;
use sigmatyper::{AnnotationOutcome, SigmaTyper, StableHasher};
use tu_ontology::Ontology;
use tu_table::Table;

pub type Digest = [u64; 2];

fn zero_timing(outcome: &mut Json) {
    if let Json::Obj(fields) = outcome {
        for (key, value) in fields.iter_mut() {
            if let (true, Json::Obj(report)) = (key == "degradation", value) {
                for (rk, rv) in report.iter_mut() {
                    if rk == "spent_nanos" || rk == "remaining_nanos" {
                        *rv = Json::from(0u64);
                    }
                }
            }
        }
    }
}

fn digest_json(mut outcome: Json) -> Digest {
    zero_timing(&mut outcome);
    let mut h = StableHasher::new();
    h.write_str(&outcome.to_string());
    h.finish128()
}

/// Digest of a `/annotate` response body; `None` if it is not JSON.
pub fn body_digest(body: &[u8]) -> Option<Digest> {
    let text = std::str::from_utf8(body).ok()?;
    Json::parse(text).ok().map(digest_json)
}

/// Digest of an in-process outcome, through the server's own encoder.
pub fn outcome_digest(outcome: &AnnotationOutcome, ontology: &Ontology) -> Digest {
    digest_json(tu_server::wire::outcome_to_json(outcome, ontology))
}

/// Expected digests of `n` tables, annotated in process with default
/// options on `threads` threads. `table(i)` builds table `i`.
pub fn expected_digests(
    typer: &SigmaTyper,
    n: usize,
    threads: usize,
    table: &(dyn Fn(usize) -> Table + Sync),
) -> Vec<Digest> {
    let mut out = vec![[0u64; 2]; n];
    let chunk = n.div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        for (c, slots) in out.chunks_mut(chunk).enumerate() {
            scope.spawn(move || {
                for (k, slot) in slots.iter_mut().enumerate() {
                    let t = table(c * chunk + k);
                    let outcome = typer.annotate_request(&sigmatyper::AnnotationRequest::new(&t));
                    *slot = outcome_digest(&outcome, typer.ontology());
                }
            });
        }
    });
    out
}
