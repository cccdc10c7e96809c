use serde::{Deserialize, Serialize};

use crate::{BufferError, LogicalBufferId};

/// Identifier of one physical SRAM bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct BankId(pub usize);

/// Geometry of the on-chip bank pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BankPoolConfig {
    /// Number of physical banks.
    pub bank_count: usize,
    /// Capacity of each bank in bytes.
    pub bank_bytes: u64,
}

impl BankPoolConfig {
    /// Creates a pool geometry.
    pub const fn new(bank_count: usize, bank_bytes: u64) -> Self {
        BankPoolConfig {
            bank_count,
            bank_bytes,
        }
    }

    /// Total pool capacity in bytes.
    pub const fn total_bytes(&self) -> u64 {
        self.bank_count as u64 * self.bank_bytes
    }

    /// Banks needed to hold `bytes` (at least one for a non-zero request).
    pub const fn banks_for_bytes(&self, bytes: u64) -> usize {
        if bytes == 0 {
            0
        } else {
            bytes.div_ceil(self.bank_bytes) as usize
        }
    }
}

/// Pool of physical banks with single-owner tracking.
///
/// Every bank is either free or owned by exactly one logical buffer; the
/// pool enforces this invariant and the property tests in this crate pin it
/// down under arbitrary operation sequences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankPool {
    config: BankPoolConfig,
    owner: Vec<Option<LogicalBufferId>>,
    free: Vec<BankId>,
    disabled: Vec<bool>,
}

impl BankPool {
    /// Creates a pool with all banks free.
    pub fn new(config: BankPoolConfig) -> Self {
        BankPool {
            config,
            owner: vec![None; config.bank_count],
            // Popping from the tail hands out low-numbered banks first.
            free: (0..config.bank_count).rev().map(BankId).collect(),
            disabled: vec![false; config.bank_count],
        }
    }

    /// Pool geometry.
    pub fn config(&self) -> BankPoolConfig {
        self.config
    }

    /// Number of free banks.
    pub fn free_banks(&self) -> usize {
        self.free.len()
    }

    /// Number of banks marked faulty and removed from circulation.
    pub fn disabled_banks(&self) -> usize {
        self.disabled.iter().filter(|d| **d).count()
    }

    /// Whether a bank has been disabled.
    ///
    /// # Panics
    ///
    /// Panics when the bank id is outside the pool.
    pub fn is_disabled(&self, bank: BankId) -> bool {
        self.disabled[bank.0]
    }

    /// Free capacity in bytes.
    pub fn free_bytes(&self) -> u64 {
        self.free.len() as u64 * self.config.bank_bytes
    }

    /// Current owner of a bank, `None` when free.
    ///
    /// # Panics
    ///
    /// Panics when the bank id is outside the pool.
    pub fn owner(&self, bank: BankId) -> Option<LogicalBufferId> {
        self.owner[bank.0]
    }

    /// Takes `count` free banks for `owner`.
    ///
    /// # Errors
    ///
    /// [`BufferError::OutOfBanks`] when fewer than `count` banks are free;
    /// the pool is left unchanged in that case.
    pub fn take(
        &mut self,
        count: usize,
        owner: LogicalBufferId,
    ) -> Result<Vec<BankId>, BufferError> {
        if count > self.free.len() {
            return Err(BufferError::OutOfBanks {
                requested: count,
                available: self.free.len(),
            });
        }
        let mut banks = Vec::with_capacity(count);
        for _ in 0..count {
            let bank = self.free.pop().expect("checked above");
            self.owner[bank.0] = Some(owner);
            banks.push(bank);
        }
        Ok(banks)
    }

    /// Returns banks to the free pool.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) when a bank was already free — an ownership
    /// bug in the caller.
    pub fn give_back(&mut self, banks: &[BankId]) {
        for &bank in banks {
            debug_assert!(self.owner[bank.0].is_some(), "double free of {bank:?}");
            self.owner[bank.0] = None;
            self.free.push(bank);
        }
    }

    /// Re-tags ownership of banks to a new logical buffer without moving
    /// data — the O(1)-per-bank mechanism behind buffer relabelling.
    pub fn retag(&mut self, banks: &[BankId], new_owner: LogicalBufferId) {
        for &bank in banks {
            debug_assert!(self.owner[bank.0].is_some(), "retag of free {bank:?}");
            self.owner[bank.0] = Some(new_owner);
        }
    }

    /// Marks a free bank as faulty, removing it from circulation for the
    /// rest of the run. The bank must already be free: callers evacuate an
    /// owned bank first (see `LogicalBuffers::revoke_bank`). Disabling an
    /// already-disabled bank is a no-op.
    ///
    /// # Errors
    ///
    /// [`BufferError::UnknownBank`] when the id is outside the pool,
    /// [`BufferError::BankInUse`] when a logical buffer still owns the bank.
    pub fn disable(&mut self, bank: BankId) -> Result<(), BufferError> {
        if bank.0 >= self.config.bank_count {
            return Err(BufferError::UnknownBank(bank));
        }
        if self.disabled[bank.0] {
            return Ok(());
        }
        if self.owner[bank.0].is_some() {
            return Err(BufferError::BankInUse(bank));
        }
        self.free.retain(|b| *b != bank);
        self.disabled[bank.0] = true;
        Ok(())
    }

    /// Verifies the conservation invariant: every bank is free xor owned
    /// xor disabled, and the free list has no duplicates. Used by tests and
    /// debug asserts.
    pub fn check_conservation(&self) -> bool {
        // The simulators assert this after every layer in debug builds, so
        // pools of up to 1,024 banks track the free list on the stack.
        let mut on_stack = [false; 1024];
        let mut on_heap;
        let seen: &mut [bool] = match on_stack.get_mut(..self.config.bank_count) {
            Some(seen) => seen,
            None => {
                on_heap = vec![false; self.config.bank_count];
                &mut on_heap
            }
        };
        for b in &self.free {
            if seen[b.0] || self.owner[b.0].is_some() || self.disabled[b.0] {
                return false;
            }
            seen[b.0] = true;
        }
        if self
            .owner
            .iter()
            .zip(&self.disabled)
            .any(|(o, d)| o.is_some() && *d)
        {
            return false;
        }
        let owned = self.owner.iter().filter(|o| o.is_some()).count();
        owned + self.free.len() + self.disabled_banks() == self.config.bank_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OWNER_A: LogicalBufferId = LogicalBufferId(100);
    const OWNER_B: LogicalBufferId = LogicalBufferId(101);

    #[test]
    fn banks_for_bytes_rounds_up() {
        let c = BankPoolConfig::new(8, 1024);
        assert_eq!(c.banks_for_bytes(0), 0);
        assert_eq!(c.banks_for_bytes(1), 1);
        assert_eq!(c.banks_for_bytes(1024), 1);
        assert_eq!(c.banks_for_bytes(1025), 2);
        assert_eq!(c.total_bytes(), 8192);
    }

    #[test]
    fn take_and_give_back_round_trip() {
        let mut pool = BankPool::new(BankPoolConfig::new(4, 512));
        let banks = pool.take(3, OWNER_A).unwrap();
        assert_eq!(pool.free_banks(), 1);
        assert!(banks.iter().all(|&b| pool.owner(b) == Some(OWNER_A)));
        pool.give_back(&banks);
        assert_eq!(pool.free_banks(), 4);
        assert_eq!(pool.free_bytes(), 2048);
        assert!(pool.check_conservation());
    }

    #[test]
    fn overcommit_fails_without_side_effects() {
        let mut pool = BankPool::new(BankPoolConfig::new(2, 512));
        let _held = pool.take(1, OWNER_A).unwrap();
        let err = pool.take(2, OWNER_B).unwrap_err();
        assert_eq!(
            err,
            BufferError::OutOfBanks {
                requested: 2,
                available: 1
            }
        );
        assert_eq!(pool.free_banks(), 1);
        assert!(pool.check_conservation());
    }

    #[test]
    fn retag_transfers_ownership_in_place() {
        let mut pool = BankPool::new(BankPoolConfig::new(4, 512));
        let banks = pool.take(2, OWNER_A).unwrap();
        pool.retag(&banks, OWNER_B);
        assert!(banks.iter().all(|&b| pool.owner(b) == Some(OWNER_B)));
        assert_eq!(pool.free_banks(), 2);
        assert!(pool.check_conservation());
    }

    #[test]
    fn low_banks_are_handed_out_first() {
        let mut pool = BankPool::new(BankPoolConfig::new(4, 512));
        let banks = pool.take(2, OWNER_A).unwrap();
        assert_eq!(banks, vec![BankId(0), BankId(1)]);
    }

    #[test]
    fn disabled_banks_leave_circulation() {
        let mut pool = BankPool::new(BankPoolConfig::new(4, 512));
        pool.disable(BankId(1)).unwrap();
        pool.disable(BankId(1)).unwrap(); // idempotent
        assert_eq!(pool.disabled_banks(), 1);
        assert!(pool.is_disabled(BankId(1)));
        assert_eq!(pool.free_banks(), 3);
        assert!(pool.check_conservation());
        // The disabled bank is never handed out again.
        let banks = pool.take(3, OWNER_A).unwrap();
        assert!(!banks.contains(&BankId(1)));
        assert!(matches!(
            pool.take(1, OWNER_B),
            Err(BufferError::OutOfBanks { .. })
        ));
    }

    #[test]
    fn disable_rejects_owned_and_unknown_banks() {
        let mut pool = BankPool::new(BankPoolConfig::new(2, 512));
        let banks = pool.take(1, OWNER_A).unwrap();
        assert_eq!(
            pool.disable(banks[0]),
            Err(BufferError::BankInUse(banks[0]))
        );
        assert_eq!(
            pool.disable(BankId(9)),
            Err(BufferError::UnknownBank(BankId(9)))
        );
        assert!(pool.check_conservation());
    }
}
