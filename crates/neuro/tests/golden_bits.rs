//! Golden `f32::to_bits` of inference and training.
//!
//! `properties.rs` checks that tape-free inference matches the tape within
//! one build, which cannot catch a change that moves both. These goldens
//! pin the bits themselves: the deployed architecture's `predict` on a few
//! generated formulas, and the loss of every training step of the
//! NeuroSelect model and both Table 2 baselines. A change to any kernel,
//! sparse operator or gradient that moves a single bit fails here.

use cnf::Cnf;
use logic_circuit::RandomCircuitSpec;
use neuro::{
    Adam, BaselineConfig, GinModel, GraphTensors, LcgTensors, NeuroSatModel, NeuroSelectConfig,
    NeuroSelectModel, ParamStore,
};
use sat_graph::{BipartiteGraph, LiteralClauseGraph};

/// Planted 3-SAT, a Tseitin expander, an equivalence miter, pigeonhole,
/// and the empty formula (padded to one node per side).
fn formulas() -> Vec<(&'static str, Cnf)> {
    let spec = RandomCircuitSpec {
        num_inputs: 6,
        num_gates: 40,
        num_outputs: 2,
    };
    vec![
        ("planted", sat_gen::planted_ksat(60, 250, 3, 5).0),
        ("tseitin", sat_gen::tseitin_expander_unsat(10, 3)),
        ("miter", sat_gen::equivalence_miter_cnf(spec, 11)),
        ("php", sat_gen::pigeonhole(5, 4)),
        ("empty", Cnf::new(0)),
    ]
}

/// Labels for the training goldens, alternating so both BCE branches run.
fn label(i: usize) -> u8 {
    (i % 2) as u8
}

/// Two epochs of batch-size-1 steps over [`formulas`]; the loss bits of
/// every step, in order.
fn train_losses<G>(graphs: &[G], mut step: impl FnMut(&G, u8) -> f32) -> Vec<u32> {
    (0..2)
        .flat_map(|_| graphs.iter().enumerate())
        .map(|(i, g)| step(g, label(i)).to_bits())
        .collect()
}

fn vcgs() -> Vec<GraphTensors> {
    formulas()
        .iter()
        .map(|(_, f)| GraphTensors::new(&BipartiteGraph::from_cnf(f)))
        .collect()
}

#[test]
fn predict_bits_of_the_default_architecture() {
    let mut store = ParamStore::new();
    let model = NeuroSelectModel::new(&mut store, NeuroSelectConfig::default());
    let got: Vec<(&str, u32)> = formulas()
        .iter()
        .zip(vcgs())
        .map(|((name, _), g)| (*name, model.predict(&store, &g).to_bits()))
        .collect();
    assert_eq!(
        got,
        [
            ("planted", 0x3F01_2002),
            ("tseitin", 0x3F00_9D65),
            ("miter", 0x3F01_98DB),
            ("php", 0x3F00_35AC),
            ("empty", 0x3F00_0000),
        ]
    );
}

#[test]
fn neuroselect_training_bits() {
    let graphs = vcgs();
    let mut store = ParamStore::new();
    let model = NeuroSelectModel::new(&mut store, NeuroSelectConfig::default());
    let mut adam = Adam::new(1e-3);
    let losses = train_losses(&graphs, |g, y| {
        model.train_step(&mut store, &mut adam, g, y)
    });
    assert_eq!(
        losses,
        [
            0x3F33_B4A8,
            0x3F38_FFF1,
            0x3F2A_5EF0,
            0x3F3C_BF30,
            0x3F31_03CB,
            0x3F25_37B0,
            0x3F3E_89FF,
            0x3F1F_85A4,
            0x3F3D_99CE,
            0x3F2F_55D0,
        ]
    );
    // The last step's update is read by one more prediction.
    let after: Vec<u32> = graphs
        .iter()
        .map(|g| model.predict(&store, g).to_bits())
        .collect();
    assert_eq!(
        after,
        [
            0x3EEE_AE4F,
            0x3EF1_FDCA,
            0x3EE8_CCCA,
            0x3F03_AC12,
            0x3EFD_744E,
        ]
    );
}

#[test]
fn gin_training_bits() {
    let graphs = vcgs();
    let mut store = ParamStore::new();
    let model = GinModel::new(&mut store, BaselineConfig::default());
    let mut adam = Adam::new(1e-3);
    let losses = train_losses(&graphs, |g, y| {
        model.train_step(&mut store, &mut adam, g, y)
    });
    assert_eq!(
        losses,
        [
            0x4B82_2E42,
            0x4D59_D483,
            0x4842_8EDC,
            0x0000_0000,
            0x3F2B_D622,
            0x4B74_0F44,
            0x0000_0000,
            0x4909_9F1F,
            0x0000_0000,
            0x3F21_16E4,
        ]
    );
}

#[test]
fn neurosat_training_bits() {
    let graphs: Vec<LcgTensors> = formulas()
        .iter()
        .map(|(_, f)| LcgTensors::new(&LiteralClauseGraph::from_cnf(f)))
        .collect();
    let mut store = ParamStore::new();
    let model = NeuroSatModel::new(&mut store, BaselineConfig::default());
    let mut adam = Adam::new(1e-3);
    let losses = train_losses(&graphs, |g, y| {
        model.train_step(&mut store, &mut adam, g, y)
    });
    assert_eq!(
        losses,
        [
            0x3EF7_D9C0,
            0x3F94_666C,
            0x3ED0_C499,
            0x3F8C_573A,
            0x3F2B_9ABC,
            0x3EF0_3765,
            0x3F78_FC62,
            0x3F00_8245,
            0x3F6A_C163,
            0x3F2A_94F6,
        ]
    );
}
