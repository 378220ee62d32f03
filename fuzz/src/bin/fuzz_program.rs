//! Fuzz target: the `Program` IR decoder — the bytes a hostile client
//! ships to a server (and a hostile server could echo back). Decoding
//! must be total: register references, opcode tags, float payloads,
//! and length fields are all attacker-controlled.

use ark_ckks::params::CkksParams;
use ark_client::program::Program;
use ark_fhe::verify::{AbstractInput, VerifyContext};
use ark_math::wire::Cursor;

fn main() {
    let opts = ark_fuzz::parse_args("program");
    let admission = VerifyContext::new(CkksParams::tiny(), &[1, 2], true, None, false)
        .expect("tiny is a consistent parameter set");
    ark_fuzz::run("program", &opts, |data| {
        let Ok(program) = Program::decode(&mut Cursor::new(data)) else {
            return;
        };
        // a program that decodes must also encode back losslessly and
        // pass through admission — accepted or rejected, never a panic
        // (the server interprets it abstractly before charging it)
        let mut encoded = Vec::new();
        program.encode(&mut encoded);
        let again =
            Program::decode(&mut Cursor::new(&encoded)).expect("re-encoded program must decode");
        assert_eq!(program, again, "encode/decode must be lossless");
        let inputs = vec![AbstractInput::at_level(3); program.n_inputs() as usize];
        let _ = admission.verify(&inputs, &program);
        let _ = program.worst_case_units(4);
        let _ = program.rotate_sum_terms();
    });
}
