//! Branch prediction: a combining (tournament) predictor — 64K-entry gshare
//! plus 16K-entry bimodal, per Table 1 — and a last-target indirect
//! predictor for `tableswitch` dispatch.

const GSHARE_BITS: u32 = 16; // 64K entries
const BIMOD_BITS: u32 = 14; // 16K entries
const CHOOSER_BITS: u32 = 14;
const ITARGET_BITS: u32 = 12;

/// Saturating 2-bit counter helpers.
fn bump(c: &mut u8, up: bool) {
    if up {
        *c = (*c + 1).min(3);
    } else {
        *c = c.saturating_sub(1);
    }
}

/// The conditional + indirect branch predictor.
#[derive(Debug, Clone)]
pub struct Predictor {
    gshare: Vec<u8>,
    bimod: Vec<u8>,
    chooser: Vec<u8>,
    history: u64,
    itargets: Vec<u64>,
}

impl Predictor {
    /// Creates a predictor with weakly-taken initial state.
    pub fn new() -> Self {
        Predictor {
            gshare: vec![2; 1 << GSHARE_BITS],
            bimod: vec![2; 1 << BIMOD_BITS],
            chooser: vec![2; 1 << CHOOSER_BITS],
            history: 0,
            itargets: vec![u64::MAX; 1 << ITARGET_BITS],
        }
    }

    /// Restores the weakly-taken construction state in place, reusing the
    /// table allocations (the cross-request reset path: recycled machines
    /// must predict exactly like fresh ones).
    pub fn reset(&mut self) {
        self.gshare.fill(2);
        self.bimod.fill(2);
        self.chooser.fill(2);
        self.history = 0;
        self.itargets.fill(u64::MAX);
    }

    fn gidx(&self, pc: u64) -> usize {
        ((pc ^ self.history) & ((1 << GSHARE_BITS) - 1)) as usize
    }

    fn bidx(pc: u64) -> usize {
        (pc & ((1 << BIMOD_BITS) - 1)) as usize
    }

    fn cidx(pc: u64) -> usize {
        (pc & ((1 << CHOOSER_BITS) - 1)) as usize
    }

    /// Predicts and trains on a conditional branch outcome. Returns `true`
    /// if the prediction was correct.
    #[inline]
    pub fn branch(&mut self, pc: u64, taken: bool) -> bool {
        let gi = self.gidx(pc);
        let g = self.gshare[gi] >= 2;
        let b = self.bimod[Self::bidx(pc)] >= 2;
        let use_g = self.chooser[Self::cidx(pc)] >= 2;
        let pred = if use_g { g } else { b };

        // Train.
        bump(&mut self.gshare[gi], taken);
        bump(&mut self.bimod[Self::bidx(pc)], taken);
        if g != b {
            bump(&mut self.chooser[Self::cidx(pc)], g == taken);
        }
        self.history = (self.history << 1) | u64::from(taken);
        pred == taken
    }

    /// Predicts and trains on an indirect branch target (history-hashed
    /// target table, ITTAGE-style in spirit). Returns `true` if the
    /// prediction was correct.
    pub fn indirect(&mut self, pc: u64, target: u64) -> bool {
        let idx =
            ((pc ^ (self.history.wrapping_mul(0x9e3779b9))) & ((1 << ITARGET_BITS) - 1)) as usize;
        let correct = self.itargets[idx] == target;
        self.itargets[idx] = target;
        // Fold the target into the global history so correlated dispatch
        // sequences are learnable.
        self.history = (self.history << 2) ^ (target & 0x3);
        correct
    }
}

impl Default for Predictor {
    fn default() -> Self {
        Predictor::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_biased_branch() {
        let mut p = Predictor::new();
        let mut wrong = 0;
        for _ in 0..1000 {
            if !p.branch(0x42, true) {
                wrong += 1;
            }
        }
        assert!(
            wrong <= 2,
            "a monomorphic branch must be learned, wrong={wrong}"
        );
    }

    #[test]
    fn learns_alternating_pattern_via_history() {
        let mut p = Predictor::new();
        // Alternating T/N: bimodal flounders, gshare should lock on.
        let mut wrong_tail = 0;
        for i in 0..2000 {
            let taken = i % 2 == 0;
            let ok = p.branch(0x99, taken);
            if i >= 1000 && !ok {
                wrong_tail += 1;
            }
        }
        assert!(
            wrong_tail < 100,
            "history predictor should learn alternation, wrong={wrong_tail}"
        );
    }

    #[test]
    fn indirect_learns_stable_target() {
        let mut p = Predictor::new();
        assert!(!p.indirect(7, 100), "cold miss");
        assert!(p.indirect(7, 100));
        assert!(!p.indirect(7, 200), "target change mispredicts");
        assert!(p.indirect(7, 200));
    }
}
