//! Pipeline-API integration tests: registry round-trips, descriptive
//! errors, and `CompileResult` serde round-trips.

use qft_kernels::{
    available_compilers, registry, CompileError, CompileOptions, CompileResult, Target,
};

/// A small target every registered compiler can handle. The 4-qubit line
/// is routable by search, walkable by lnn-path, and native for `lnn`; the
/// device-specific mappers get their own family instead.
fn small_target_for(compiler: &str) -> Target {
    match compiler {
        "sycamore" => Target::sycamore(2).unwrap(),
        "heavyhex" => Target::heavy_hex_groups(2).unwrap(),
        "lattice" => Target::lattice_surgery(3).unwrap(),
        _ => Target::lnn(4).unwrap(),
    }
}

#[test]
fn all_seven_compilers_are_registered() {
    let names = available_compilers();
    for expected in [
        "lnn", "sycamore", "heavyhex", "lattice", "sabre", "optimal", "lnn-path",
    ] {
        assert!(
            names.contains(&expected),
            "{expected} missing from {names:?}"
        );
    }
    assert_eq!(names.len(), 7, "unexpected extra compilers: {names:?}");
}

#[test]
fn registry_round_trip_every_compiler_compiles_and_verifies() {
    // In-pipeline symbolic verification: adjacency, SWAP replay, and the
    // QFT interaction contract all checked for every registered compiler.
    let opts = CompileOptions::verified();
    for name in available_compilers() {
        let target = small_target_for(name);
        let c = registry().get(name).expect("listed name must resolve");
        assert_eq!(c.name(), name);
        assert!(!c.description().is_empty());
        assert!(c.supports(&target), "{name} must support {}", target.name());
        let r = c
            .compile(&target, &opts)
            .unwrap_or_else(|e| panic!("{name} on {}: {e}", target.name()));
        assert_eq!(r.compiler, name);
        assert_eq!(r.target, target.name());
        assert_eq!(r.n, target.n_qubits());
        assert_eq!(r.metrics.cphases, r.n * (r.n - 1) / 2);
        assert_eq!(r.metrics.hadamards, r.n);
        assert!(r.metrics.depth > 0);
    }
}

#[test]
fn compile_result_roundtrips_through_serde() {
    let target = Target::heavy_hex_groups(2).unwrap();
    let r = registry()
        .compile("heavyhex", &target, &CompileOptions::default())
        .unwrap();

    let json = serde_json::to_string(&r).expect("serialize CompileResult");
    let back: CompileResult = serde_json::from_str(&json).expect("deserialize CompileResult");

    assert_eq!(back.compiler, r.compiler);
    assert_eq!(back.target, r.target);
    assert_eq!(back.n, r.n);
    assert_eq!(back.metrics, r.metrics);
    assert_eq!(back.note, r.note);
    assert_eq!(back.circuit.ops(), r.circuit.ops());
    assert_eq!(back.circuit.initial_layout(), r.circuit.initial_layout());
    assert_eq!(back.circuit.final_layout(), r.circuit.final_layout());
    // The deserialized artifact is still a live object: QASM export works.
    assert_eq!(back.qasm(), r.qasm());
}

#[test]
fn invalid_targets_surface_compile_errors_not_panics() {
    for result in [
        Target::sycamore(5),
        Target::sycamore(0),
        Target::heavy_hex_groups(0),
        Target::lattice_surgery(1),
        Target::lnn(1),
    ] {
        match result {
            Err(CompileError::InvalidTarget { reason }) => {
                assert!(!reason.is_empty());
            }
            Err(e) => panic!("wrong error kind: {e}"),
            Ok(t) => panic!("{} should have been rejected", t.name()),
        }
    }
}

#[test]
fn unknown_compiler_is_a_described_error() {
    let t = Target::lnn(4).unwrap();
    match registry().compile("qiskit", &t, &CompileOptions::default()) {
        Err(CompileError::UnknownCompiler { name, available }) => {
            assert_eq!(name, "qiskit");
            assert_eq!(available.len(), 7);
        }
        other => panic!("expected UnknownCompiler, got {other:?}"),
    }
}

#[test]
fn incompatible_compiler_target_pairs_error_cleanly() {
    let lattice = Target::lattice_surgery(3).unwrap();
    match registry().compile("sycamore", &lattice, &CompileOptions::default()) {
        Err(CompileError::UnsupportedTarget {
            compiler, target, ..
        }) => {
            assert_eq!(compiler, "sycamore");
            assert_eq!(target, "lattice-surgery-3x3");
        }
        other => panic!("expected UnsupportedTarget, got {other:?}"),
    }
}
