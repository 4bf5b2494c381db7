//! Control-flow graph construction from XR32 machine code.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use zolc_isa::{Instr, Program, TEXT_BASE};

/// A basic block: a maximal straight-line instruction run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// Block id (index into [`Cfg::blocks`]).
    pub id: usize,
    /// Byte address of the first instruction.
    pub start: u32,
    /// Byte address one past the last instruction.
    pub end: u32,
    /// Successor block ids.
    pub succs: Vec<usize>,
    /// Predecessor block ids.
    pub preds: Vec<usize>,
}

impl BasicBlock {
    /// Number of instructions in the block.
    pub fn len(&self) -> usize {
        ((self.end - self.start) / 4) as usize
    }

    /// Whether the block is empty (never produced by the builder).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Iterates over the instruction addresses of the block.
    pub fn addrs(&self) -> impl Iterator<Item = u32> {
        (self.start..self.end).step_by(4)
    }
}

/// A control-flow graph over a program's text segment.
///
/// Fall-through, branch and jump edges are included; `halt` and `jr`
/// terminate paths (`jr` targets are data-dependent, so functions using
/// them as computed dispatch are out of scope — the benchmark kernels
/// return via straight-line code).
///
/// # Examples
///
/// ```
/// use zolc_cfg::Cfg;
///
/// let program = zolc_isa::assemble("
///     li   r1, 3
/// top: addi r1, r1, -1
///     bne  r1, r0, top
///     halt
/// ").unwrap();
/// let cfg = Cfg::build(&program);
/// // blocks: [li], [addi, bne], [halt]
/// assert_eq!(cfg.blocks().len(), 3);
/// let latch = cfg.block_at(4).unwrap();
/// assert!(latch.succs.contains(&latch.id), "back edge to itself");
/// assert_eq!(cfg.reachable().len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cfg {
    blocks: Vec<BasicBlock>,
    entry: usize,
    by_start: BTreeMap<u32, usize>,
}

impl Cfg {
    /// Builds the CFG of `program`.
    pub fn build(program: &Program) -> Cfg {
        let text = program.text();
        let n = text.len();
        let addr = |idx: usize| TEXT_BASE + 4 * idx as u32;

        // Pass 1: leaders.
        let mut leaders: BTreeSet<u32> = BTreeSet::new();
        if n > 0 {
            leaders.insert(TEXT_BASE);
        }
        for (i, instr) in text.iter().enumerate() {
            let pc = addr(i);
            match instr {
                Instr::J { target } | Instr::Jal { target } => {
                    leaders.insert(target << 2);
                    if i + 1 < n {
                        leaders.insert(addr(i + 1));
                    }
                }
                Instr::Jr { .. } | Instr::Halt if i + 1 < n => {
                    leaders.insert(addr(i + 1));
                }
                Instr::Jr { .. } | Instr::Halt => {}
                _ if instr.is_cond_branch() => {
                    if let Some(t) = instr.branch_target(pc) {
                        leaders.insert(t);
                    }
                    if i + 1 < n {
                        leaders.insert(addr(i + 1));
                    }
                }
                _ => {}
            }
        }
        leaders.retain(|&l| l < addr(n));

        // Pass 2: blocks between leaders.
        let starts: Vec<u32> = leaders.iter().copied().collect();
        let mut blocks = Vec::with_capacity(starts.len());
        let mut by_start = BTreeMap::new();
        for (id, &start) in starts.iter().enumerate() {
            let end = starts.get(id + 1).copied().unwrap_or(addr(n));
            by_start.insert(start, id);
            blocks.push(BasicBlock {
                id,
                start,
                end,
                succs: Vec::new(),
                preds: Vec::new(),
            });
        }

        // Pass 3: edges.
        for id in 0..blocks.len() {
            let last_pc = blocks[id].end - 4;
            let instr = text[((last_pc - TEXT_BASE) / 4) as usize];
            let mut succs = Vec::new();
            match instr {
                Instr::J { target } | Instr::Jal { target } => {
                    if let Some(&t) = by_start.get(&(target << 2)) {
                        succs.push(t);
                    }
                }
                Instr::Jr { .. } | Instr::Halt => {}
                _ if instr.is_cond_branch() => {
                    if let Some(&t) = instr.branch_target(last_pc).and_then(|t| by_start.get(&t)) {
                        succs.push(t);
                    }
                    if let Some(&ft) = by_start.get(&blocks[id].end) {
                        if !succs.contains(&ft) {
                            succs.push(ft);
                        }
                    }
                }
                _ => {
                    if let Some(&ft) = by_start.get(&blocks[id].end) {
                        succs.push(ft);
                    }
                }
            }
            for s in &succs {
                blocks[*s].preds.push(id);
            }
            blocks[id].succs = succs;
        }

        Cfg {
            blocks,
            entry: 0,
            by_start,
        }
    }

    /// All blocks in address order.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// The entry block id (address [`TEXT_BASE`]).
    pub fn entry(&self) -> usize {
        self.entry
    }

    /// The block starting at `addr`, if any.
    pub fn block_at(&self, addr: u32) -> Option<&BasicBlock> {
        self.by_start.get(&addr).map(|&id| &self.blocks[id])
    }

    /// The block *containing* `addr`.
    pub fn block_containing(&self, addr: u32) -> Option<&BasicBlock> {
        self.by_start
            .range(..=addr)
            .next_back()
            .map(|(_, &id)| &self.blocks[id])
            .filter(|b| addr < b.end)
    }

    /// Converts to the explicit [`zolc_analyze::FlowGraph`] the
    /// dataflow solver runs over, decoding each block's instructions
    /// from `program` (which must be the program this CFG was built
    /// from).
    ///
    /// # Examples
    ///
    /// ```
    /// use zolc_analyze::{solve, Liveness, RegSet};
    /// use zolc_cfg::Cfg;
    ///
    /// let program = zolc_isa::assemble("
    ///     li   r1, 3
    /// top: addi r1, r1, -1
    ///     bne  r1, r0, top
    ///     halt
    /// ").unwrap();
    /// let cfg = Cfg::build(&program);
    /// let sol = solve(&cfg.flow(&program), &Liveness { at_exit: RegSet::EMPTY });
    /// assert!(sol.block_in[1].contains(zolc_isa::reg(1)), "counter live in the loop");
    /// ```
    pub fn flow(&self, program: &Program) -> zolc_analyze::FlowGraph {
        self.flow_over(program.text())
    }

    /// [`Self::flow`] over a text segment with this CFG's blocks and
    /// edges — the program's own, or a rewrite that keeps every control
    /// transfer in place.
    pub(crate) fn flow_over(&self, text: &[Instr]) -> zolc_analyze::FlowGraph {
        let blocks = self
            .blocks
            .iter()
            .map(|b| zolc_analyze::FlowBlock {
                start: b.start,
                instrs: b
                    .addrs()
                    .map(|pc| text[((pc - TEXT_BASE) / 4) as usize])
                    .collect(),
                succs: b.succs.clone(),
            })
            .collect();
        zolc_analyze::FlowGraph::new(self.entry, blocks)
    }

    /// Blocks reachable from the entry, as a bitset-ish sorted list.
    pub fn reachable(&self) -> Vec<usize> {
        let mut seen = vec![false; self.blocks.len()];
        let mut stack = vec![self.entry];
        while let Some(b) = stack.pop() {
            if std::mem::replace(&mut seen[b], true) {
                continue;
            }
            stack.extend(self.blocks[b].succs.iter().copied());
        }
        (0..self.blocks.len()).filter(|&b| seen[b]).collect()
    }
}

impl fmt::Display for Cfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.blocks {
            writeln!(
                f,
                "bb{} [{:#x}..{:#x}) -> {:?}",
                b.id, b.start, b.end, b.succs
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zolc_isa::assemble;

    fn cfg_of(src: &str) -> Cfg {
        Cfg::build(&assemble(src).unwrap())
    }

    #[test]
    fn straight_line_is_one_block() {
        let c = cfg_of("nop\nnop\nhalt\n");
        assert_eq!(c.blocks().len(), 1);
        assert_eq!(c.blocks()[0].len(), 3);
        assert!(c.blocks()[0].succs.is_empty());
    }

    #[test]
    fn branch_splits_blocks() {
        let c = cfg_of(
            "
            li   r1, 3
      top:  addi r1, r1, -1
            bne  r1, r0, top
            halt
        ",
        );
        // blocks: [li], [addi, bne], [halt]
        assert_eq!(c.blocks().len(), 3);
        let loop_block = c.block_at(4).unwrap();
        assert_eq!(loop_block.len(), 2);
        // back edge to itself and fall-through to halt
        assert!(loop_block.succs.contains(&loop_block.id));
        assert_eq!(loop_block.succs.len(), 2);
    }

    #[test]
    fn jump_edge_and_unreachable_block() {
        let c = cfg_of(
            "
            j    end
            nop
      end:  halt
        ",
        );
        assert_eq!(c.blocks().len(), 3);
        let reach = c.reachable();
        assert_eq!(reach.len(), 2); // the nop block is unreachable
    }

    #[test]
    fn block_containing_lookup() {
        let c = cfg_of("nop\nnop\nhalt\n");
        assert_eq!(c.block_containing(4).unwrap().id, 0);
        assert!(c.block_containing(0x100).is_none());
    }

    #[test]
    fn if_else_diamond() {
        let c = cfg_of(
            "
            beq  r1, r0, else
            addi r2, r0, 1
            j    join
      else: addi r2, r0, 2
      join: halt
        ",
        );
        // entry, then, else, join
        assert_eq!(c.blocks().len(), 4);
        let entry = &c.blocks()[c.entry()];
        assert_eq!(entry.succs.len(), 2);
        let join = c.block_at(16).unwrap();
        assert_eq!(join.preds.len(), 2);
    }

    #[test]
    fn display_lists_blocks() {
        let c = cfg_of("nop\nhalt\n");
        assert!(c.to_string().contains("bb0"));
    }
}
