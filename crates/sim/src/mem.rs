//! Byte-addressable little-endian memory with single-cycle access.
//!
//! The XiRisc evaluation in the paper runs from on-chip SRAM; there are no
//! caches, so every access completes in one cycle. [`Memory`] models that
//! with width/alignment-checked accessors over page-granular storage: the
//! address space is split into 4 KiB pages, a page is allocated (zeroed)
//! on its first write, and a load from a page never written reads a shared
//! zero page. A session therefore costs what its program touches, not the
//! configured size.

use std::fmt;

/// log2 of the page size.
const PAGE_BITS: u32 = 12;
/// Bytes per page.
const PAGE_SIZE: usize = 1 << PAGE_BITS;
/// Mask of the in-page offset bits.
const PAGE_MASK: usize = PAGE_SIZE - 1;

type Page = [u8; PAGE_SIZE];

/// What every untouched page reads as.
static ZERO_PAGE: Page = [0; PAGE_SIZE];

/// Kinds of memory access failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum MemErrorKind {
    /// Address beyond the configured memory size.
    OutOfBounds,
    /// Address not aligned to the access width.
    Misaligned,
}

/// The error returned by memory accessors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemError {
    addr: u32,
    width: u8,
    kind: MemErrorKind,
}

impl MemError {
    /// The faulting byte address.
    pub fn addr(&self) -> u32 {
        self.addr
    }

    /// The access width in bytes (1, 2 or 4).
    pub fn width(&self) -> u8 {
        self.width
    }

    /// What went wrong.
    pub fn kind(&self) -> MemErrorKind {
        self.kind
    }
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            MemErrorKind::OutOfBounds => write!(
                f,
                "address {:#x} out of bounds ({}-byte access)",
                self.addr, self.width
            ),
            MemErrorKind::Misaligned => {
                write!(
                    f,
                    "misaligned {}-byte access at {:#x}",
                    self.width, self.addr
                )
            }
        }
    }
}

impl std::error::Error for MemError {}

/// Little-endian memory of a fixed byte size, allocated a page at a time.
///
/// Bounds are checked against the byte size, so a size that is not a
/// multiple of the page size faults at the same byte a flat array of that
/// size would. Equality compares contents: a page never written equals a
/// page written back to zeros.
///
/// # Examples
///
/// ```
/// use zolc_sim::Memory;
/// let mut m = Memory::new(1024);
/// m.store_word(0x10, 0xdead_beef)?;
/// assert_eq!(m.load_word(0x10)?, 0xdead_beef);
/// assert_eq!(m.load_byte(0x10)?, 0xef);
/// # Ok::<(), zolc_sim::MemError>(())
/// ```
#[derive(Clone)]
pub struct Memory {
    /// One slot per page; `None` until the page's first write.
    pages: Vec<Option<Box<Page>>>,
    size: usize,
}

impl Memory {
    /// Creates a zero-initialized memory of `size` bytes.
    pub fn new(size: usize) -> Memory {
        Memory {
            pages: vec![None; size.div_ceil(PAGE_SIZE)],
            size,
        }
    }

    /// Total size in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The pages allocated so far.
    pub(crate) fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    fn check(&self, addr: u32, width: u8) -> Result<usize, MemError> {
        let a = addr as usize;
        if !addr.is_multiple_of(u32::from(width)) {
            return Err(MemError {
                addr,
                width,
                kind: MemErrorKind::Misaligned,
            });
        }
        if a + width as usize > self.size {
            return Err(MemError {
                addr,
                width,
                kind: MemErrorKind::OutOfBounds,
            });
        }
        Ok(a)
    }

    /// Checks that `len` bytes from `addr` lie inside memory.
    fn check_range(&self, addr: u32, len: usize) -> Result<usize, MemError> {
        let a = addr as usize;
        if a.checked_add(len).is_none_or(|end| end > self.size) {
            return Err(MemError {
                addr,
                width: 1,
                kind: MemErrorKind::OutOfBounds,
            });
        }
        Ok(a)
    }

    /// The page holding in-bounds byte `a`, or the zero page if it was
    /// never written.
    fn page(&self, a: usize) -> &Page {
        self.pages[a >> PAGE_BITS].as_deref().unwrap_or(&ZERO_PAGE)
    }

    /// The page holding in-bounds byte `a`, allocated on first use.
    fn page_mut(&mut self, a: usize) -> &mut Page {
        self.pages[a >> PAGE_BITS].get_or_insert_with(|| {
            // Zeroed on the heap: `Box::new([0; PAGE_SIZE])` may build the
            // page on the stack and copy it.
            vec![0; PAGE_SIZE]
                .into_boxed_slice()
                .try_into()
                .expect("page-sized allocation")
        })
    }

    /// The `N` bytes at an aligned, in-bounds `a` (aligned accesses never
    /// straddle a page).
    fn load<const N: usize>(&self, a: usize) -> [u8; N] {
        let o = a & PAGE_MASK;
        self.page(a)[o..o + N]
            .try_into()
            .expect("aligned access within one page")
    }

    fn store<const N: usize>(&mut self, a: usize, bytes: [u8; N]) {
        let o = a & PAGE_MASK;
        self.page_mut(a)[o..o + N].copy_from_slice(&bytes);
    }

    /// Loads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if the address is out of bounds.
    pub fn load_byte(&self, addr: u32) -> Result<u8, MemError> {
        let a = self.check(addr, 1)?;
        Ok(u8::from_le_bytes(self.load(a)))
    }

    /// Loads a 16-bit halfword (little-endian).
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] on misalignment or out-of-bounds access.
    pub fn load_half(&self, addr: u32) -> Result<u16, MemError> {
        let a = self.check(addr, 2)?;
        Ok(u16::from_le_bytes(self.load(a)))
    }

    /// Loads a 32-bit word (little-endian).
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] on misalignment or out-of-bounds access.
    pub fn load_word(&self, addr: u32) -> Result<u32, MemError> {
        let a = self.check(addr, 4)?;
        Ok(u32::from_le_bytes(self.load(a)))
    }

    /// Stores one byte.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if the address is out of bounds.
    pub fn store_byte(&mut self, addr: u32, value: u8) -> Result<(), MemError> {
        let a = self.check(addr, 1)?;
        self.store(a, value.to_le_bytes());
        Ok(())
    }

    /// Stores a 16-bit halfword.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] on misalignment or out-of-bounds access.
    pub fn store_half(&mut self, addr: u32, value: u16) -> Result<(), MemError> {
        let a = self.check(addr, 2)?;
        self.store(a, value.to_le_bytes());
        Ok(())
    }

    /// Stores a 32-bit word.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] on misalignment or out-of-bounds access.
    pub fn store_word(&mut self, addr: u32, value: u32) -> Result<(), MemError> {
        let a = self.check(addr, 4)?;
        self.store(a, value.to_le_bytes());
        Ok(())
    }

    /// Copies a byte slice into memory at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if the region does not fit.
    pub fn write_bytes(&mut self, addr: u32, data: &[u8]) -> Result<(), MemError> {
        let mut a = self.check_range(addr, data.len())?;
        let mut rest = data;
        while !rest.is_empty() {
            let o = a & PAGE_MASK;
            let (chunk, tail) = rest.split_at(rest.len().min(PAGE_SIZE - o));
            self.page_mut(a)[o..o + chunk.len()].copy_from_slice(chunk);
            a += chunk.len();
            rest = tail;
        }
        Ok(())
    }

    /// Reads `len` bytes starting at `addr` into a new vector (a range
    /// may straddle pages, so there is no single slice to borrow).
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if the region does not fit.
    pub fn read_bytes(&self, addr: u32, len: usize) -> Result<Vec<u8>, MemError> {
        let mut a = self.check_range(addr, len)?;
        let end = a + len;
        let mut out = Vec::with_capacity(len);
        while a < end {
            let o = a & PAGE_MASK;
            let n = (end - a).min(PAGE_SIZE - o);
            out.extend_from_slice(&self.page(a)[o..o + n]);
            a += n;
        }
        Ok(out)
    }

    /// Reads `count` consecutive 32-bit words starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] on misalignment or out-of-bounds access.
    pub fn read_words(&self, addr: u32, count: usize) -> Result<Vec<u32>, MemError> {
        (0..count)
            .map(|k| self.load_word(addr + 4 * k as u32))
            .collect()
    }
}

impl PartialEq for Memory {
    fn eq(&self, other: &Memory) -> bool {
        self.size == other.size
            && self.pages.iter().zip(&other.pages).all(|(a, b)| {
                a.as_deref().unwrap_or(&ZERO_PAGE) == b.as_deref().unwrap_or(&ZERO_PAGE)
            })
    }
}

impl Eq for Memory {}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memory")
            .field("size", &self.size)
            .field("resident_pages", &self.resident_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_widths() {
        let mut m = Memory::new(64);
        m.store_word(0, 0x0102_0304).unwrap();
        assert_eq!(m.load_byte(0).unwrap(), 0x04);
        assert_eq!(m.load_byte(3).unwrap(), 0x01);
        assert_eq!(m.load_half(0).unwrap(), 0x0304);
        assert_eq!(m.load_half(2).unwrap(), 0x0102);
        m.store_half(4, 0xbeef).unwrap();
        assert_eq!(m.load_word(4).unwrap(), 0x0000_beef);
        m.store_byte(8, 0x7f).unwrap();
        assert_eq!(m.load_word(8).unwrap(), 0x0000_007f);
    }

    #[test]
    fn misalignment_detected() {
        let mut m = Memory::new(64);
        assert_eq!(m.load_word(2).unwrap_err().kind(), MemErrorKind::Misaligned);
        assert_eq!(
            m.store_half(1, 0).unwrap_err().kind(),
            MemErrorKind::Misaligned
        );
    }

    #[test]
    fn out_of_bounds_detected() {
        let mut m = Memory::new(8);
        assert_eq!(
            m.load_word(8).unwrap_err().kind(),
            MemErrorKind::OutOfBounds
        );
        assert_eq!(
            m.store_byte(8, 0).unwrap_err().kind(),
            MemErrorKind::OutOfBounds
        );
        assert_eq!(m.load_word(4).unwrap(), 0);
    }

    #[test]
    fn bulk_io() {
        let mut m = Memory::new(32);
        m.write_bytes(4, &[1, 2, 3, 4, 5]).unwrap();
        assert_eq!(m.read_bytes(4, 5).unwrap(), &[1, 2, 3, 4, 5]);
        assert!(m.write_bytes(30, &[0; 4]).is_err());
        assert!(m.read_bytes(30, 4).is_err());
        m.store_word(8, 7).unwrap();
        m.store_word(12, 9).unwrap();
        assert_eq!(m.read_words(8, 2).unwrap(), vec![7, 9]);
    }

    #[test]
    fn error_display() {
        let m = Memory::new(4);
        let e = m.load_word(5).unwrap_err();
        assert!(e.to_string().contains("misaligned"));
        assert_eq!(e.addr(), 5);
        assert_eq!(e.width(), 4);
    }

    #[test]
    fn write_straddling_three_pages_round_trips() {
        let mut m = Memory::new(4 * PAGE_SIZE);
        // starts 3 bytes before the end of page 0, ends 5 bytes into page 2
        let start = PAGE_SIZE - 3;
        let data: Vec<u8> = (0..PAGE_SIZE + 8).map(|i| (i % 251) as u8 + 1).collect();
        m.write_bytes(start as u32, &data).unwrap();
        assert_eq!(m.resident_pages(), 3);
        assert_eq!(m.read_bytes(start as u32, data.len()).unwrap(), data);
        // the bytes either side of the range stay zero
        assert_eq!(m.load_byte(start as u32 - 1).unwrap(), 0);
        assert_eq!(m.load_byte((start + data.len()) as u32).unwrap(), 0);
    }

    #[test]
    fn loads_from_untouched_pages_allocate_nothing() {
        let m = Memory::new(3 * PAGE_SIZE + 10);
        assert_eq!(m.load_word(PAGE_SIZE as u32).unwrap(), 0);
        assert_eq!(m.load_half(2 * PAGE_SIZE as u32 + 2).unwrap(), 0);
        assert_eq!(m.load_byte(3 * PAGE_SIZE as u32 + 9).unwrap(), 0);
        assert_eq!(m.read_bytes(0, m.size()).unwrap(), vec![0; m.size()]);
        assert_eq!(m.read_words(0, 8).unwrap(), vec![0; 8]);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn partial_last_page_faults_at_the_byte_size() {
        let mut m = Memory::new(PAGE_SIZE + 6);
        let last = PAGE_SIZE as u32 + 5;
        m.store_byte(last, 0xaa).unwrap();
        assert_eq!(m.load_half(last - 1).unwrap(), 0xaa00);
        let e = m.load_word(last - 1).unwrap_err();
        assert_eq!((e.addr(), e.width()), (last - 1, 4));
        assert_eq!(e.kind(), MemErrorKind::OutOfBounds);
        assert_eq!(
            m.store_byte(last + 1, 0).unwrap_err().kind(),
            MemErrorKind::OutOfBounds
        );
    }

    #[test]
    fn a_page_written_back_to_zeros_equals_a_fresh_one() {
        let fresh = Memory::new(2 * PAGE_SIZE);
        let mut m = fresh.clone();
        m.store_word(PAGE_SIZE as u32 + 8, 0x1234_5678).unwrap();
        assert_ne!(m, fresh);
        m.store_word(PAGE_SIZE as u32 + 8, 0).unwrap();
        assert_eq!(m.resident_pages(), 1);
        assert_eq!(m, fresh);
        assert_ne!(m, Memory::new(2 * PAGE_SIZE + 1));
    }

    #[test]
    fn a_small_default_session_holds_at_most_two_pages() {
        use crate::{CompiledProgram, CpuConfig, ExecutorKind};
        use std::sync::Arc;
        let program = zolc_isa::assemble(
            "
            .text
            la   r2, out
            li   r11, 5
      top:  addi r11, r11, -1
            sw   r11, 0(r2)
            bne  r11, r0, top
            halt
            .data
      out:  .word 7
        ",
        )
        .unwrap();
        let compiled = Arc::new(CompiledProgram::compile(program));
        for kind in ExecutorKind::ALL {
            let session = kind.new_session(&compiled, CpuConfig::default()).unwrap();
            assert!(
                session.mem().resident_pages() <= 2,
                "{kind:?}: {:?}",
                session.mem()
            );
        }
    }
}
