//! The near-linear prologue against the definitions it shortcuts.
//!
//! * the elimination tree read *through* a permutation
//!   ([`etree_permuted`]) is the tree of the permuted matrix;
//! * the tree of the postordered matrix is the first tree relabeled
//!   ([`relabel`]) — no second pass over the matrix;
//! * the skeleton / least-common-ancestor column counts ([`col_counts`]) are
//!   the counts of a brute-force symbolic factorization, and of the
//!   row-subtree walk over every entry of `L` they replaced.
//!
//! Over random patterns under random orderings, plus the shapes that break
//! tree algorithms: arrow, one dense row, disconnected components, pure
//! diagonal, long chain, n ∈ {1, 2}.

use sympack_ordering::Permutation;
use sympack_sparse::gen::{random_spd, XorShift64};
use sympack_sparse::SymPattern;
use sympack_symbolic::etree::{etree, etree_permuted, postorder, relabel};
use sympack_symbolic::{analyze, col_counts, AnalyzeOptions};

/// The pattern with the given strictly-lower edges (plus the diagonal).
fn from_edges(n: usize, edges: &[(usize, usize)]) -> SymPattern {
    let mut cols: Vec<Vec<usize>> = (0..n).map(|c| vec![c]).collect();
    for &(r, c) in edges {
        let (r, c) = (r.max(c), r.min(c));
        if r != c && !cols[c].contains(&r) {
            cols[c].push(r);
        }
    }
    let (mut col_ptr, mut row_idx) = (vec![0], Vec::new());
    for rows in cols.iter_mut() {
        rows.sort_unstable();
        row_idx.extend_from_slice(rows);
        col_ptr.push(row_idx.len());
    }
    SymPattern::from_parts(n, col_ptr, row_idx)
}

fn zoo() -> Vec<(String, SymPattern)> {
    let n = 24;
    let mut v = vec![
        (
            "arrow".to_string(),
            from_edges(n, &(0..n - 1).map(|c| (n - 1, c)).collect::<Vec<_>>()),
        ),
        (
            "reverse arrow".to_string(),
            from_edges(n, &(1..n).map(|r| (r, 0)).collect::<Vec<_>>()),
        ),
        (
            "one dense row".to_string(),
            from_edges(n, &(0..n).map(|c| (n / 2, c)).collect::<Vec<_>>()),
        ),
        ("pure diagonal".to_string(), from_edges(n, &[])),
        (
            "long chain".to_string(),
            from_edges(64, &(1..64).map(|r| (r, r - 1)).collect::<Vec<_>>()),
        ),
        ("n = 1".to_string(), from_edges(1, &[])),
        ("n = 2 coupled".to_string(), from_edges(2, &[(1, 0)])),
        ("n = 2 diagonal".to_string(), from_edges(2, &[])),
    ];
    // Three components: a clique, a chain and an isolated vertex.
    let mut edges = Vec::new();
    for r in 0..6 {
        for c in 0..r {
            edges.push((r, c));
        }
    }
    edges.extend((7..15).map(|r| (r, r - 1)));
    v.push((
        "disconnected components".to_string(),
        from_edges(16, &edges),
    ));
    let mut rng = XorShift64::new(0x9e21_0010);
    for seed in 0..40 {
        let n = 2 + rng.next_below(60);
        let a = random_spd(n, 1 + rng.next_below(7), seed);
        v.push((
            format!("random_spd(n={n}, seed={seed})"),
            a.pattern().clone(),
        ));
    }
    v
}

fn shuffled(n: usize, rng: &mut XorShift64) -> Permutation {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.next_below(i + 1));
    }
    Permutation::from_vec(perm)
}

/// Column counts by brute-force symbolic factorization: the full column
/// patterns of `L`, each column merged into its parent.
fn counts_by_fill(a: &SymPattern) -> Vec<usize> {
    let n = a.n();
    let mut pattern: Vec<std::collections::BTreeSet<usize>> = (0..n)
        .map(|c| a.col_rows(c).iter().copied().collect())
        .collect();
    for j in 0..n {
        let below: Vec<usize> = pattern[j].iter().copied().filter(|&r| r > j).collect();
        if let Some(&p) = below.first() {
            for &r in &below[1..] {
                pattern[p].insert(r);
            }
        }
    }
    pattern.iter().map(|p| p.len()).collect()
}

/// Column counts the way `col_counts` computed them until PR 21: walk every
/// row subtree, one step per entry of `L`.
fn counts_by_row_subtrees(a: &SymPattern, parent: &[usize]) -> Vec<usize> {
    let n = a.n();
    let mut counts = vec![1usize; n];
    let mut row_lists: Vec<Vec<usize>> = vec![Vec::new(); n];
    for k in 0..n {
        for &r in &a.col_rows(k)[1..] {
            row_lists[r].push(k);
        }
    }
    let mut mark = vec![usize::MAX; n];
    for (i, row) in row_lists.iter().enumerate() {
        mark[i] = i;
        for &k in row {
            let mut v = k;
            while v != usize::MAX && mark[v] != i {
                mark[v] = i;
                counts[v] += 1;
                v = parent[v];
            }
        }
    }
    counts
}

#[test]
fn the_tree_read_through_a_permutation_is_the_tree_of_the_permuted_matrix() {
    let mut rng = XorShift64::new(0x9e21_0011);
    for (name, a) in zoo() {
        for _ in 0..3 {
            let p = shuffled(a.n(), &mut rng);
            let want = etree(&a.permute(p.as_slice()));
            let got = etree_permuted(&a, p.inverse().as_slice());
            assert_eq!(got, want, "{name}");
        }
    }
}

#[test]
fn the_relabeled_tree_is_the_tree_of_the_postordered_matrix() {
    let mut rng = XorShift64::new(0x9e21_0012);
    for (name, a) in zoo() {
        for _ in 0..3 {
            // Start from a shuffled matrix so the postorder is not trivial.
            let a1 = a.permute(shuffled(a.n(), &mut rng).as_slice());
            let parent = etree(&a1);
            let post = postorder(&parent);
            let ap = a1.permute(post.as_slice());
            assert_eq!(relabel(&parent, &post), etree(&ap), "{name}");
            // And a postordered tree's own postorder is the identity, so
            // `col_counts` may assume nothing and still pay nothing.
            let n = a.n();
            assert_eq!(
                postorder(&etree(&ap)),
                Permutation::identity(n),
                "{name}: postorder of a postordered tree"
            );
        }
    }
}

#[test]
fn skeleton_column_counts_match_both_oracles() {
    let mut rng = XorShift64::new(0x9e21_0013);
    for (name, a) in zoo() {
        // In the given order (any tree shape, not postordered) …
        let parent = etree(&a);
        let got = col_counts(&a, &parent);
        assert_eq!(got, counts_by_fill(&a), "{name}: vs brute-force fill");
        assert_eq!(
            got,
            counts_by_row_subtrees(&a, &parent),
            "{name}: vs row-subtree walk"
        );
        // … shuffled, and postordered (what `analyze` feeds it).
        let a1 = a.permute(shuffled(a.n(), &mut rng).as_slice());
        let parent = etree(&a1);
        assert_eq!(
            col_counts(&a1, &parent),
            counts_by_fill(&a1),
            "{name}: shuffled"
        );
        let post = postorder(&parent);
        let ap = a1.permute(post.as_slice());
        let parent = relabel(&parent, &post);
        assert_eq!(
            col_counts(&ap, &parent),
            counts_by_fill(&ap),
            "{name}: postordered"
        );
    }
}

#[test]
fn analyze_agrees_with_the_column_counts_on_every_shape() {
    // With amalgamation off nothing is padded: the supernodal patterns hold
    // exactly the fill, so l_nnz is the sum of the column counts of the
    // matrix `analyze` actually factors (permuted by its composite).
    let opts = AnalyzeOptions {
        amalgamation_ratio: 0.0,
        ..Default::default()
    };
    let mut rng = XorShift64::new(0x9e21_0014);
    for (name, a) in zoo() {
        let n = a.n();
        let values = vec![1.0; a.nnz()];
        let m = sympack_sparse::SparseSym::from_pattern(a.clone(), values);
        let ordering = shuffled(n, &mut rng);
        let sf = analyze(&m, &ordering, &opts);
        sf.perm.validate().unwrap();
        let ap = a.permute(sf.perm.as_slice());
        let counts = counts_by_fill(&ap);
        assert_eq!(sf.l_nnz, counts.iter().sum::<usize>(), "{name}: l_nnz");
        for s in 0..sf.n_supernodes() {
            let last = sf.partition.last_col(s);
            assert_eq!(
                sf.patterns[s].len(),
                counts[last] - 1,
                "{name}: pattern of supernode {s}"
            );
        }
    }
}
