//! `SELECTACYCLICBOUNDARIES` — choosing the boundary subset that minimizes
//! Equation 1 of the paper:
//!
//! ```text
//! Π = Σ_{n=1..N} (R − r_n)² / (R · r_n)
//! ```
//!
//! where `R` is the desired region size and `r_n` the size of the n-th
//! candidate region (the equation originates in MSSP's task selection). The
//! first and last candidates are forced; an O(k²) dynamic program picks the
//! interior subset.

/// One candidate boundary along a dominant path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Index of the block within the path.
    pub path_index: usize,
    /// Cumulative op count from the start of the path up to (exclusive)
    /// this candidate.
    pub prefix_ops: u64,
}

/// Equation 1 penalty for a single region of size `r` against target `R`.
pub fn pi_term(r_target: u64, r: u64) -> f64 {
    if r == 0 {
        return f64::INFINITY;
    }
    let rt = r_target as f64;
    let rf = r as f64;
    (rt - rf) * (rt - rf) / (rt * rf)
}

/// Selects the subset of `candidates` (which must be sorted by
/// `path_index`) minimizing Π, always retaining the first and last.
/// Returns indices into `candidates`.
pub fn select_boundaries(r_target: u64, candidates: &[Candidate]) -> Vec<usize> {
    let k = candidates.len();
    if k <= 2 {
        return (0..k).collect();
    }
    // best[j] = (min Π of partition of candidates[0..=j] ending with j chosen,
    //            predecessor index)
    let mut best: Vec<(f64, usize)> = vec![(f64::INFINITY, 0); k];
    best[0] = (0.0, 0);
    for j in 1..k {
        for i in 0..j {
            if best[i].0.is_infinite() {
                continue;
            }
            let r = candidates[j].prefix_ops - candidates[i].prefix_ops;
            let cost = best[i].0 + pi_term(r_target, r);
            if cost < best[j].0 {
                best[j] = (cost, i);
            }
        }
    }
    // Backtrack from the forced last candidate.
    let mut chosen = vec![k - 1];
    let mut cur = k - 1;
    while cur != 0 {
        cur = best[cur].1;
        chosen.push(cur);
    }
    chosen.reverse();
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cands(prefixes: &[u64]) -> Vec<Candidate> {
        prefixes
            .iter()
            .enumerate()
            .map(|(i, &p)| Candidate {
                path_index: i,
                prefix_ops: p,
            })
            .collect()
    }

    #[test]
    fn pi_prefers_target_size() {
        assert_eq!(pi_term(200, 200), 0.0);
        assert!(pi_term(200, 100) > 0.0);
        assert!(pi_term(200, 400) > pi_term(200, 200));
        assert!(pi_term(200, 0).is_infinite());
    }

    #[test]
    fn splits_long_path_near_target() {
        // Candidates every 100 ops along a 600-op path; R = 200 should pick
        // every other candidate: segments of exactly 200.
        let c = cands(&[0, 100, 200, 300, 400, 500, 600]);
        let chosen = select_boundaries(200, &c);
        assert_eq!(chosen, vec![0, 2, 4, 6]);
    }

    #[test]
    fn keeps_endpoints_when_path_small() {
        let c = cands(&[0, 30, 60]);
        let chosen = select_boundaries(200, &c);
        // A single 60-op region beats two 30-op regions.
        assert_eq!(chosen, vec![0, 2]);
    }

    #[test]
    fn two_candidates_trivially_kept() {
        let c = cands(&[0, 500]);
        assert_eq!(select_boundaries(200, &c), vec![0, 1]);
        assert_eq!(select_boundaries(200, &c[..1]), vec![0]);
        assert!(select_boundaries(200, &[]).is_empty());
    }

    #[test]
    fn brute_force_agreement() {
        // Exhaustively check the DP against brute force on small inputs.
        let prefixes = [0u64, 70, 130, 260, 340, 410, 600];
        let c = cands(&prefixes);
        let chosen = select_boundaries(200, &c);
        let dp_cost: f64 = chosen
            .windows(2)
            .map(|w| pi_term(200, prefixes[w[1]] - prefixes[w[0]]))
            .sum();
        // Brute force over all subsets containing first & last.
        let k = prefixes.len();
        let mut best = f64::INFINITY;
        for mask in 0..(1u32 << (k - 2)) {
            let mut idx = vec![0usize];
            for bit in 0..(k - 2) {
                if mask & (1 << bit) != 0 {
                    idx.push(bit + 1);
                }
            }
            idx.push(k - 1);
            let cost: f64 = idx
                .windows(2)
                .map(|w| pi_term(200, prefixes[w[1]] - prefixes[w[0]]))
                .sum();
            best = best.min(cost);
        }
        assert!(
            (dp_cost - best).abs() < 1e-9,
            "dp {dp_cost} vs brute {best}"
        );
    }
}
