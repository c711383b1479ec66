//! Seeded property tests for the bank resource grid and the Table 6
//! comparison: totals are exact sums, monotone under growth, zero for
//! empty banks, and the comparison preserves the paper's precision
//! ordering for arbitrary classifier widths.

use poetbin_power::{energy_grid, BankGrid, ModuleGrid};
use rand::prelude::*;
use rand::rngs::StdRng;

fn random_grid(rng: &mut StdRng) -> ModuleGrid {
    let trees = rng.random_range(0..64usize);
    let mats = rng.random_range(0..16usize);
    ModuleGrid {
        // Every tree and MAT occupies at least one LUT; allow glue on top.
        luts: trees + mats + rng.random_range(0..8usize),
        trees,
        mats,
    }
}

fn random_bank(rng: &mut StdRng, max_modules: usize) -> BankGrid {
    let n = rng.random_range(0..=max_modules);
    (0..n).map(|_| random_grid(rng)).collect()
}

#[test]
fn totals_are_exact_field_wise_sums() {
    let mut rng = StdRng::seed_from_u64(101);
    for _ in 0..200 {
        let bank = random_bank(&mut rng, 40);
        let totals = bank.totals();
        assert_eq!(
            totals.luts,
            bank.modules.iter().map(|m| m.luts).sum::<usize>()
        );
        assert_eq!(
            totals.trees,
            bank.modules.iter().map(|m| m.trees).sum::<usize>()
        );
        assert_eq!(
            totals.mats,
            bank.modules.iter().map(|m| m.mats).sum::<usize>()
        );
    }
}

#[test]
fn empty_banks_cost_nothing() {
    let empty = BankGrid::default();
    assert_eq!(empty.totals(), ModuleGrid::default());
}

#[test]
fn totals_are_monotone_in_module_count() {
    // Growing a bank module by module never decreases any total.
    let mut rng = StdRng::seed_from_u64(202);
    for _ in 0..50 {
        let mut bank = BankGrid::default();
        let mut prev = bank.totals();
        for _ in 0..rng.random_range(1..30usize) {
            let module = random_grid(&mut rng);
            bank.modules.push(module);
            let now = bank.totals();
            assert!(now.luts >= prev.luts);
            assert!(now.trees >= prev.trees);
            assert!(now.mats >= prev.mats);
            prev = now;
        }
    }
}

#[test]
fn totals_are_monotone_in_tree_count() {
    // Adding trees (each at least one LUT) to any module raises the tree
    // and LUT totals by exactly that many.
    let mut rng = StdRng::seed_from_u64(303);
    for _ in 0..100 {
        let mut bank = random_bank(&mut rng, 20);
        if bank.modules.is_empty() {
            bank.modules.push(random_grid(&mut rng));
        }
        let before = bank.totals();
        let target = rng.random_range(0..bank.modules.len());
        let extra = rng.random_range(1..8usize);
        bank.modules[target].trees += extra;
        bank.modules[target].luts += extra;
        let after = bank.totals();
        assert_eq!(after.trees, before.trees + extra);
        assert_eq!(after.luts, before.luts + extra);
    }
}

#[test]
fn energy_grid_preserves_precision_ordering() {
    // Table 6's ordering (float > int32 > int16 > binary) must hold for
    // arbitrary FC stacks, not just the three paper rows.
    let mut rng = StdRng::seed_from_u64(404);
    for _ in 0..100 {
        let layers = rng.random_range(2..5usize);
        let widths: Vec<usize> = (0..layers).map(|_| rng.random_range(8..2048)).collect();
        let clock = rng.random_range(10..200) as f64;
        let g = energy_grid(&widths, clock, 1e-9);
        assert!(g.vanilla_j > g.int32_j, "{widths:?}");
        assert!(g.int32_j > g.int16_j, "{widths:?}");
        assert!(g.int16_j > g.binary_j, "{widths:?}");
        // The conventional rows run at 62.5 MHz whatever PoET-BiN's clock,
        // so a small stack's binary row can sit below any fixed figure: a
        // PoET-BiN figure below the binary row wins, and one above
        // vanilla never does.
        let winning = energy_grid(&widths, clock, g.binary_j / 2.0);
        assert!(winning.poetbin_wins(), "{widths:?}");
        let losing = energy_grid(&widths, clock, g.vanilla_j * 2.0);
        assert!(!losing.poetbin_wins());
    }
}
