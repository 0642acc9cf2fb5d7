use std::collections::HashMap;

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// Sparse, paged byte-addressable memory.
///
/// Pages (4 KiB) are allocated on first touch and zero-initialised, so
/// reads from untouched addresses return zero — convenient for workload
/// images that only initialise the interesting structures.
///
/// # Example
///
/// ```
/// use crisp_emu::Memory;
/// let mut m = Memory::new();
/// m.write_u64(0xdead_b000, 7);
/// assert_eq!(m.read_u64(0xdead_b000), 7);
/// assert_eq!(m.read_u64(0x42), 0); // untouched => zero
/// ```
#[derive(Clone, Debug, Default)]
pub struct Memory {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>>,
}

impl Memory {
    /// Creates an empty memory image.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Number of allocated (touched) pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(page) => page[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let page = self
            .pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
        page[(addr & PAGE_MASK) as usize] = value;
    }

    /// Reads `width` bytes little-endian, zero-extended to 64 bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or greater than 8.
    pub fn read(&self, addr: u64, width: u64) -> u64 {
        assert!((1..=8).contains(&width), "bad read width {width}");
        // Fast path: aligned 8-byte read fully inside a page.
        if width == 8 && addr & 7 == 0 {
            if let Some(page) = self.pages.get(&(addr >> PAGE_SHIFT)) {
                let o = (addr & PAGE_MASK) as usize;
                return u64::from_le_bytes(page[o..o + 8].try_into().expect("8-byte slice"));
            }
            return 0;
        }
        let mut v = 0u64;
        for i in 0..width {
            v |= u64::from(self.read_u8(addr.wrapping_add(i))) << (8 * i);
        }
        v
    }

    /// Writes the low `width` bytes of `value` little-endian.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or greater than 8.
    pub fn write(&mut self, addr: u64, value: u64, width: u64) {
        assert!((1..=8).contains(&width), "bad write width {width}");
        if width == 8 && addr & 7 == 0 {
            let page = self
                .pages
                .entry(addr >> PAGE_SHIFT)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
            let o = (addr & PAGE_MASK) as usize;
            page[o..o + 8].copy_from_slice(&value.to_le_bytes());
            return;
        }
        for i in 0..width {
            self.write_u8(addr.wrapping_add(i), (value >> (8 * i)) as u8);
        }
    }

    /// Reads an aligned-or-not 64-bit little-endian word.
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read(addr, 8)
    }

    /// Writes a 64-bit little-endian word.
    #[inline]
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write(addr, value, 8)
    }

    /// Writes a slice of 64-bit words at consecutive 8-byte locations
    /// starting at `addr`.
    pub fn write_u64_slice(&mut self, addr: u64, values: &[u64]) {
        for (i, v) in values.iter().enumerate() {
            self.write_u64(addr + 8 * i as u64, *v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_memory_reads_zero() {
        let m = Memory::new();
        assert_eq!(m.read_u64(0), 0);
        assert_eq!(m.read_u8(u64::MAX), 0);
        assert_eq!(m.page_count(), 0);
    }

    #[test]
    fn read_write_round_trip_all_widths() {
        let mut m = Memory::new();
        for width in [1u64, 2, 4, 8] {
            let addr = 0x1000 + width * 64;
            let value = 0x1122_3344_5566_7788u64;
            m.write(addr, value, width);
            let mask = if width == 8 {
                u64::MAX
            } else {
                (1u64 << (8 * width)) - 1
            };
            assert_eq!(m.read(addr, width), value & mask, "width {width}");
        }
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = 0x1FFC; // straddles the 0x1000/0x2000 page boundary
        m.write(addr, 0xAABB_CCDD_EEFF_0011, 8);
        assert_eq!(m.read(addr, 8), 0xAABB_CCDD_EEFF_0011);
        assert_eq!(m.page_count(), 2);
    }

    #[test]
    fn partial_writes_do_not_clobber_neighbours() {
        let mut m = Memory::new();
        m.write_u64(0x100, u64::MAX);
        m.write(0x102, 0, 2);
        assert_eq!(m.read_u64(0x100), 0xFFFF_FFFF_0000_FFFF);
    }

    #[test]
    fn write_slice_lays_out_consecutively() {
        let mut m = Memory::new();
        m.write_u64_slice(0x2000, &[1, 2, 3]);
        assert_eq!(m.read_u64(0x2000), 1);
        assert_eq!(m.read_u64(0x2008), 2);
        assert_eq!(m.read_u64(0x2010), 3);
    }

    #[test]
    #[should_panic(expected = "bad read width")]
    fn zero_width_read_panics() {
        Memory::new().read(0, 0);
    }

    #[test]
    #[should_panic(expected = "bad write width")]
    fn oversized_write_panics() {
        Memory::new().write(0, 0, 9);
    }
}
