//! Model check of the page-granular [`Memory`]: random access sequences
//! run against it and against a flat `Vec<u8>` reference must give the
//! same value or the same error (address, width, kind) at every step.
//!
//! Sizes cover a sub-page memory, a partial single page, one byte past a
//! page boundary and the default session size; addresses are biased
//! toward page edges, the last byte and past the end, where a paged
//! layout can disagree with a flat one. `PROPTEST_CASES` scales the run.

use proptest::prelude::*;
use zolc_sim::{CpuConfig, MemErrorKind, Memory};

const PAGE: usize = 4096;

fn sizes() -> [usize; 4] {
    [64, PAGE - 1, PAGE + 1, CpuConfig::default().mem_size]
}

/// An error as the accessors report it.
type Fault = (u32, u8, MemErrorKind);

#[derive(Debug, Clone)]
enum Op {
    LoadByte(u32),
    LoadHalf(u32),
    LoadWord(u32),
    StoreByte(u32, u8),
    StoreHalf(u32, u16),
    StoreWord(u32, u32),
    WriteBytes(u32, Vec<u8>),
    ReadBytes(u32, usize),
    ReadWords(u32, usize),
}

/// What one step produced.
#[derive(Debug, PartialEq)]
enum Out {
    Unit,
    Value(u32),
    Bytes(Vec<u8>),
    Words(Vec<u32>),
}

/// The reference: one flat byte array, the layout the paged memory must
/// be indistinguishable from.
struct Flat {
    bytes: Vec<u8>,
}

impl Flat {
    fn check(&self, addr: u32, width: u8) -> Result<usize, Fault> {
        if !addr.is_multiple_of(u32::from(width)) {
            return Err((addr, width, MemErrorKind::Misaligned));
        }
        let a = addr as usize;
        if a + width as usize > self.bytes.len() {
            return Err((addr, width, MemErrorKind::OutOfBounds));
        }
        Ok(a)
    }

    fn range(&self, addr: u32, len: usize) -> Result<std::ops::Range<usize>, Fault> {
        let a = addr as usize;
        if a + len > self.bytes.len() {
            return Err((addr, 1, MemErrorKind::OutOfBounds));
        }
        Ok(a..a + len)
    }

    fn load(&self, addr: u32, width: u8) -> Result<u32, Fault> {
        let a = self.check(addr, width)?;
        Ok((0..width as usize).fold(0, |v, i| v | u32::from(self.bytes[a + i]) << (8 * i)))
    }

    fn store(&mut self, addr: u32, width: u8, value: u32) -> Result<Out, Fault> {
        let a = self.check(addr, width)?;
        let n = width as usize;
        self.bytes[a..a + n].copy_from_slice(&value.to_le_bytes()[..n]);
        Ok(Out::Unit)
    }

    fn apply(&mut self, op: &Op) -> Result<Out, Fault> {
        match *op {
            Op::LoadByte(a) => self.load(a, 1).map(Out::Value),
            Op::LoadHalf(a) => self.load(a, 2).map(Out::Value),
            Op::LoadWord(a) => self.load(a, 4).map(Out::Value),
            Op::StoreByte(a, v) => self.store(a, 1, u32::from(v)),
            Op::StoreHalf(a, v) => self.store(a, 2, u32::from(v)),
            Op::StoreWord(a, v) => self.store(a, 4, v),
            Op::WriteBytes(a, ref data) => {
                let r = self.range(a, data.len())?;
                self.bytes[r].copy_from_slice(data);
                Ok(Out::Unit)
            }
            Op::ReadBytes(a, len) => Ok(Out::Bytes(self.bytes[self.range(a, len)?].to_vec())),
            Op::ReadWords(a, count) => (0..count)
                .map(|k| self.load(a + 4 * k as u32, 4))
                .collect::<Result<_, _>>()
                .map(Out::Words),
        }
    }
}

fn apply(m: &mut Memory, op: &Op) -> Result<Out, Fault> {
    let fault = |e: zolc_sim::MemError| (e.addr(), e.width(), e.kind());
    match *op {
        Op::LoadByte(a) => m.load_byte(a).map(|v| Out::Value(v.into())),
        Op::LoadHalf(a) => m.load_half(a).map(|v| Out::Value(v.into())),
        Op::LoadWord(a) => m.load_word(a).map(Out::Value),
        Op::StoreByte(a, v) => m.store_byte(a, v).map(|()| Out::Unit),
        Op::StoreHalf(a, v) => m.store_half(a, v).map(|()| Out::Unit),
        Op::StoreWord(a, v) => m.store_word(a, v).map(|()| Out::Unit),
        Op::WriteBytes(a, ref data) => m.write_bytes(a, data).map(|()| Out::Unit),
        Op::ReadBytes(a, len) => m.read_bytes(a, len).map(Out::Bytes),
        Op::ReadWords(a, count) => m.read_words(a, count).map(Out::Words),
    }
    .map_err(fault)
}

/// Addresses biased toward where pages and the byte size end.
fn addr(size: usize) -> BoxedStrategy<u32> {
    let pages = size.div_ceil(PAGE);
    prop_oneof![
        (0..size + 16).prop_map(|a| a as u32),
        (0..=pages, -8i64..=8).prop_map(|(k, d)| (k as i64 * PAGE as i64 + d).max(0) as u32),
        (0..=8usize).prop_map(move |d| size.saturating_sub(1 + d) as u32),
        (0..=8usize).prop_map(move |d| (size + d) as u32),
        (0..16u32).prop_map(|d| u32::MAX - d),
    ]
    .boxed()
}

/// Lengths that are mostly short but sometimes span three pages.
fn len() -> BoxedStrategy<usize> {
    prop_oneof![0..16usize, 0..=2 * PAGE + 16].boxed()
}

fn bytes() -> BoxedStrategy<Vec<u8>> {
    len()
        .prop_flat_map(|n| prop::collection::vec(any::<u8>(), n))
        .boxed()
}

fn op(size: usize) -> BoxedStrategy<Op> {
    prop_oneof![
        addr(size).prop_map(Op::LoadByte),
        addr(size).prop_map(Op::LoadHalf),
        addr(size).prop_map(Op::LoadWord),
        (addr(size), any::<u8>()).prop_map(|(a, v)| Op::StoreByte(a, v)),
        (addr(size), any::<u16>()).prop_map(|(a, v)| Op::StoreHalf(a, v)),
        (addr(size), any::<u32>()).prop_map(|(a, v)| Op::StoreWord(a, v)),
        (addr(size), bytes()).prop_map(|(a, bytes)| Op::WriteBytes(a, bytes)),
        (addr(size), len()).prop_map(|(a, n)| Op::ReadBytes(a, n)),
        (addr(size), len()).prop_map(|(a, n)| Op::ReadWords(a, n / 4)),
    ]
    .boxed()
}

fn case() -> impl Strategy<Value = (usize, Vec<Op>)> {
    (0..sizes().len()).prop_flat_map(|i| {
        let size = sizes()[i];
        (Just(size), prop::collection::vec(op(size), 1..48))
    })
}

proptest! {
    #[test]
    fn paged_memory_matches_a_flat_byte_array((size, ops) in case()) {
        let mut paged = Memory::new(size);
        let mut flat = Flat { bytes: vec![0; size] };
        prop_assert_eq!(paged.size(), size);
        for (step, op) in ops.iter().enumerate() {
            let want = flat.apply(op);
            let got = apply(&mut paged, op);
            prop_assert!(got == want, "size {size}, step {step} ({op:?}): {got:?} != {want:?}");
        }
        // whole contents agree, and equality sees through residency: a
        // memory with every page written holds the same bytes
        prop_assert!(paged.read_bytes(0, size).unwrap() == flat.bytes);
        let mut dense = Memory::new(size);
        dense.write_bytes(0, &flat.bytes).unwrap();
        prop_assert!(paged == dense);
    }
}
