//! The client-side correctness gate. Every reply is decoded and checked:
//!
//! * every instance is solved (no per-instance error, no Busy/Malformed);
//! * its certificate re-checks (`canon::certificate_bound_holds`);
//! * its cover covers the instance the benchmark sent;
//! * its served body, re-encoded from the decoded result with
//!   `wire::encode_solved_body`, is byte-identical to the in-process
//!   oracle's (the `from_cache` flag is not part of the body, so it is
//!   ignored).

use crate::workload::Template;
use anonet_core::canon::{self, ByteReader};
use anonet_service::wire::{self, InstanceResult, SolveResponse};

/// Why a request did not count as solved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Failure {
    /// `Busy` backpressure reply.
    Busy,
    /// `Malformed` or `Unsupported` reply.
    Rejected,
    /// The reply frame did not decode.
    Decode,
    /// A per-instance error inside an `Ok` reply.
    InstanceError,
    /// A certificate failed its re-check.
    Certificate,
    /// A cover left an edge or element uncovered.
    Cover,
    /// A served body differed from the oracle's.
    BodyMismatch,
    /// No reply (transport error, closed connection or drain timeout).
    Timeout,
}

/// Failure counts of one window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests solved and verified.
    pub ok: u64,
    /// `Busy` replies.
    pub busy: u64,
    /// `Malformed`/`Unsupported` replies.
    pub rejected: u64,
    /// Undecodable replies.
    pub decode: u64,
    /// Per-instance errors.
    pub instance_errors: u64,
    /// Failed certificate re-checks.
    pub certificate: u64,
    /// Failed cover checks.
    pub cover: u64,
    /// Body mismatches against the oracle.
    pub body_mismatch: u64,
    /// Missing replies.
    pub timeouts: u64,
}

impl Tally {
    /// Counts one outcome.
    pub fn add(&mut self, outcome: Result<(), Failure>) {
        match outcome {
            Ok(()) => self.ok += 1,
            Err(Failure::Busy) => self.busy += 1,
            Err(Failure::Rejected) => self.rejected += 1,
            Err(Failure::Decode) => self.decode += 1,
            Err(Failure::InstanceError) => self.instance_errors += 1,
            Err(Failure::Certificate) => self.certificate += 1,
            Err(Failure::Cover) => self.cover += 1,
            Err(Failure::BodyMismatch) => self.body_mismatch += 1,
            Err(Failure::Timeout) => self.timeouts += 1,
        }
    }

    /// Adds another tally.
    pub fn merge(&mut self, o: &Tally) {
        self.ok += o.ok;
        self.busy += o.busy;
        self.rejected += o.rejected;
        self.decode += o.decode;
        self.instance_errors += o.instance_errors;
        self.certificate += o.certificate;
        self.cover += o.cover;
        self.body_mismatch += o.body_mismatch;
        self.timeouts += o.timeouts;
    }

    /// Requests that were not solved, for any reason.
    pub fn failed(&self) -> u64 {
        self.busy + self.correctness_failures() + self.timeouts
    }

    /// Failures that mean a wrong answer or a broken protocol (as opposed
    /// to load shedding): any of these fails the run.
    pub fn correctness_failures(&self) -> u64 {
        self.rejected
            + self.decode
            + self.instance_errors
            + self.certificate
            + self.cover
            + self.body_mismatch
    }

    /// Every request counted.
    pub fn attempted(&self) -> u64 {
        self.ok + self.failed()
    }
}

/// Decodes a solve-response frame payload.
pub fn decode_reply(payload: &[u8]) -> Result<SolveResponse, Failure> {
    let mut r = ByteReader::new(payload);
    match wire::read_header(&mut r) {
        Ok(wire::MSG_SOLVE_RESPONSE) => {
            wire::decode_solve_response(&mut r).map_err(|_| Failure::Decode)
        }
        _ => Err(Failure::Decode),
    }
}

/// Checks a decoded reply against the request it answers.
pub fn verify(resp: &SolveResponse, tmpl: &Template) -> Result<(), Failure> {
    let results = match resp {
        SolveResponse::Ok(results) => results,
        SolveResponse::Busy { .. } => return Err(Failure::Busy),
        SolveResponse::Malformed(_) | SolveResponse::Unsupported(_) => {
            return Err(Failure::Rejected)
        }
    };
    if results.len() != tmpl.decoded.len() {
        return Err(Failure::Decode);
    }
    if tmpl.expected.len() != results.len() {
        return Err(Failure::BodyMismatch);
    }
    for ((res, inst), want) in results.iter().zip(&tmpl.decoded).zip(&tmpl.expected) {
        let solved = match res {
            InstanceResult::Solved(s) => s,
            InstanceResult::Error(_) => return Err(Failure::InstanceError),
        };
        if !canon::certificate_bound_holds(&solved.certificate) {
            return Err(Failure::Certificate);
        }
        if !inst.is_covered_by(&solved.cover) {
            return Err(Failure::Cover);
        }
        if wire::encode_solved_body(&solved.cover, &solved.certificate, &solved.trace) != *want {
            return Err(Failure::BodyMismatch);
        }
    }
    Ok(())
}
