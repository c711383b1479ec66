//! Operation counting for fully connected classifier stacks (Table 5).

/// MAC operation counts of a classifier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Total multiplications per inference.
    pub multiplications: u64,
    /// Total additions per inference (one per multiplication in a MAC, as
    /// the paper counts).
    pub additions: u64,
    /// Total neurons across the counted layers.
    pub neurons: u64,
}

/// Counts the MACs of a fully connected classifier described by its layer
/// widths, input first: `[input, hidden…, output]`.
///
/// The paper counts one multiplication and one addition per weight, e.g.
/// M1 = 512→512→10 gives 512·512 + 512·10 = 267 264 of each (Table 5).
///
/// # Panics
///
/// Panics if fewer than two widths are given.
pub fn fc_ops(widths: &[usize]) -> OpCounts {
    assert!(widths.len() >= 2, "need at least input and output widths");
    let mut macs = 0u64;
    let mut neurons = 0u64;
    for pair in widths.windows(2) {
        macs += pair[0] as u64 * pair[1] as u64;
        neurons += pair[1] as u64;
    }
    OpCounts {
        multiplications: macs,
        additions: macs,
        neurons,
    }
}

/// The classifier stacks of Table 1, for reuse by the table generators:
/// `(name, widths)` with the binary-feature input first.
pub const PAPER_CLASSIFIERS: [(&str, &[usize]); 3] = [
    ("MNIST", &[512, 512, 10]),
    ("CIFAR-10", &[512, 4096, 4096, 10]),
    ("SVHN", &[512, 2048, 2048, 10]),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_mnist() {
        let ops = fc_ops(&[512, 512, 10]);
        assert_eq!(ops.multiplications, 267_264);
        assert_eq!(ops.additions, 267_264);
        assert_eq!(ops.neurons, 522);
    }

    #[test]
    fn table5_cifar10() {
        let ops = fc_ops(&[512, 4096, 4096, 10]);
        assert_eq!(ops.multiplications, 18_915_328);
    }

    #[test]
    fn table5_svhn() {
        let ops = fc_ops(&[512, 2048, 2048, 10]);
        assert_eq!(ops.multiplications, 5_263_360);
    }

    #[test]
    fn paper_constants_match_fc_ops() {
        let expect = [267_264u64, 18_915_328, 5_263_360];
        for ((_, widths), want) in PAPER_CLASSIFIERS.iter().zip(expect) {
            assert_eq!(fc_ops(widths).multiplications, want);
        }
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn single_width_panics() {
        fc_ops(&[512]);
    }
}
