//! Property tests for [`sympack::pattern_hash`], the key under the fleet's
//! symbolic plan cache.
//!
//! Randomized over the house xorshift64* generator (the workspace carries
//! no external crates): the hash must be a pure function of the sparsity
//! *structure* — any re-valuation of the same pattern collides, and any
//! single-entry structural edit (one off-diagonal added or removed) does
//! not. A false split only wastes an analysis; a false share would hand a
//! tenant the wrong elimination tree, so the edit direction is the one that
//! must never fail.

use sympack::{pattern_hash, plan_cache_key, SolverOptions};
use sympack_sparse::gen::XorShift64;
use sympack_sparse::SparseSym;

/// A random lower-triangle pattern as per-column row lists (diagonal always
/// present, rows strictly increasing by construction).
fn random_pattern(rng: &mut XorShift64, n: usize, density: f64) -> Vec<Vec<usize>> {
    (0..n)
        .map(|c| {
            let mut rows = vec![c];
            rows.extend(((c + 1)..n).filter(|_| rng.next_f64() < density));
            rows
        })
        .collect()
}

/// Assemble a matrix from per-column row lists and a value stream.
fn assemble(cols: &[Vec<usize>], rng: &mut XorShift64) -> SparseSym {
    let n = cols.len();
    let mut col_ptr = vec![0usize];
    let mut row_idx = Vec::new();
    for rows in cols {
        row_idx.extend_from_slice(rows);
        col_ptr.push(row_idx.len());
    }
    let values: Vec<f64> = (0..row_idx.len())
        .map(|_| rng.next_f64() * 2.0 - 1.0)
        .collect();
    SparseSym::from_parts(n, col_ptr, row_idx, values)
}

#[test]
fn any_revaluation_of_a_pattern_collides() {
    let mut rng = XorShift64::new(0xbeef_0001);
    for trial in 0..100 {
        let n = 3 + rng.next_below(40);
        let density = 0.05 + rng.next_f64() * 0.4;
        let cols = random_pattern(&mut rng, n, density);
        let a = assemble(&cols, &mut rng);
        let b = assemble(&cols, &mut rng); // same pattern, fresh values
        assert_eq!(
            pattern_hash(&a),
            pattern_hash(&b),
            "trial {trial}: values leaked into the pattern hash (n={n})"
        );
        // And through the cache key, under identical options.
        let opts = SolverOptions::default();
        assert_eq!(
            plan_cache_key(pattern_hash(&a), &opts),
            plan_cache_key(pattern_hash(&b), &opts),
            "trial {trial}: cache key split a shared pattern"
        );
    }
}

#[test]
fn single_entry_edits_always_change_the_hash() {
    let mut rng = XorShift64::new(0xbeef_0002);
    let mut removals = 0;
    for trial in 0..100 {
        let n = 4 + rng.next_below(30);
        let cols = random_pattern(&mut rng, n, 0.25);
        let a = assemble(&cols, &mut rng);
        let h = pattern_hash(&a);

        // Remove one random off-diagonal entry (when the pattern has any).
        let candidates: Vec<(usize, usize)> = cols
            .iter()
            .enumerate()
            .flat_map(|(c, rows)| rows[1..].iter().map(move |&r| (c, r)))
            .collect();
        if let Some(&(c, r)) = candidates.get(rng.next_below(candidates.len().max(1))) {
            let mut edited = cols.clone();
            edited[c].retain(|&x| x != r);
            let b = assemble(&edited, &mut rng);
            assert_ne!(
                h,
                pattern_hash(&b),
                "trial {trial}: removing ({r},{c}) collided (n={n})"
            );
            removals += 1;
        }

        // Add one random absent entry below the diagonal.
        let absent: Vec<(usize, usize)> = (0..n)
            .flat_map(|c| ((c + 1)..n).map(move |r| (c, r)))
            .filter(|&(c, r)| !cols[c].contains(&r))
            .collect();
        if let Some(&(c, r)) = absent.get(rng.next_below(absent.len().max(1))) {
            let mut edited = cols.clone();
            edited[c].push(r);
            edited[c].sort_unstable();
            let b = assemble(&edited, &mut rng);
            assert_ne!(
                h,
                pattern_hash(&b),
                "trial {trial}: adding ({r},{c}) collided (n={n})"
            );
        }
    }
    assert!(removals > 50, "removal arm barely exercised: {removals}");
}

#[test]
fn order_and_count_separate_prefix_sharing_patterns() {
    // Diagonal matrices of every order share long array prefixes; the
    // explicit n/nnz fold (and the arrays themselves) must keep all their
    // digests distinct.
    let mut rng = XorShift64::new(0xbeef_0003);
    let mut seen = std::collections::HashSet::new();
    for n in 1..=32 {
        let cols: Vec<Vec<usize>> = (0..n).map(|c| vec![c]).collect();
        let h = pattern_hash(&assemble(&cols, &mut rng));
        assert!(seen.insert(h), "diag({n}) collided with a smaller order");
    }
}

#[test]
fn explicitly_stored_zeros_are_part_of_the_pattern() {
    // `Coo::to_csc` keeps a pushed 0.0 (and a lone -0.0, stored as +0.0) as
    // an entry, and `permute` carries it: the hash — and with it the plan
    // cache key — sees the same structure as for any other values, and a
    // different one from the matrix without those entries.
    use sympack_sparse::Coo;
    let n = 6;
    let build = |extra: &[(usize, usize, f64)]| {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0).unwrap();
        }
        coo.push_sym(3, 1, -1.0).unwrap();
        for &(r, c, v) in extra {
            coo.push_sym(r, c, v).unwrap();
        }
        coo.to_csc().to_lower_sym()
    };
    let zeros = build(&[(4, 0, 0.0), (5, 2, -0.0)]);
    let ones = build(&[(4, 0, 1.0), (5, 2, 1.0)]);
    let without = build(&[]);
    assert_eq!(zeros.nnz(), without.nnz() + 2, "to_csc kept both zeros");
    assert_eq!(zeros.get(5, 2).to_bits(), 0.0f64.to_bits());
    assert_eq!(pattern_hash(&zeros), pattern_hash(&ones));
    assert_ne!(pattern_hash(&zeros), pattern_hash(&without));
    // Through a permutation and back: same entries, same hash.
    let perm = [3usize, 0, 5, 1, 4, 2];
    let mut inv = [0usize; 6];
    for (new, &old) in perm.iter().enumerate() {
        inv[old] = new;
    }
    let p = zeros.permute(&perm);
    assert_eq!(p.nnz(), zeros.nnz(), "permute kept both zeros");
    assert_eq!(pattern_hash(&p), pattern_hash(&ones.permute(&perm)));
    assert_eq!(pattern_hash(&p.permute(&inv)), pattern_hash(&zeros));
    assert_eq!(p.permute(&inv), zeros);
    let id: Vec<usize> = (0..n).collect();
    assert_eq!(pattern_hash(&zeros.permute(&id)), pattern_hash(&zeros));
}
