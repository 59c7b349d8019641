//! The SRAM cost of the inference task context table (Figure 4 of the PREMA
//! paper, sized in Section VI-F).
//!
//! The preemption module inside the NPU tracks, per co-located task: its ID,
//! priority, accumulated tokens, how long it has executed, how long it has
//! waited, its estimated total execution time, and its lifecycle state. The
//! engine keeps those seven fields in each task's runtime state; this module
//! prices the hardware table that would hold them: seven 64-bit fields per
//! entry (448 bits), i.e. well under a kilobyte of SRAM even for 16
//! co-located tasks.

/// Number of 64-bit fields per context-table entry (Section VI-F).
pub const FIELDS_PER_ENTRY: u64 = 7;
/// Bits per context-table field.
pub const BITS_PER_FIELD: u64 = 64;

/// Size in bits of the SRAM structure needed to track `task_slots`
/// co-located tasks (Section VI-F: 448 bits per task).
pub fn sram_bits(task_slots: u64) -> u64 {
    task_slots * FIELDS_PER_ENTRY * BITS_PER_FIELD
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sram_cost_matches_section_vi_f() {
        // 448 bits per task; 16 co-located tasks need 7168 bits (< 1 KB).
        assert_eq!(sram_bits(1), 448);
        assert_eq!(sram_bits(16), 448 * 16);
        assert_eq!(sram_bits(0), 0);
    }
}
