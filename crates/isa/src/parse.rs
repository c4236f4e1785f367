//! Textual assembly parser: the inverse of the disassembler, so programs
//! can be written in `.s` files and run from the command line.
//!
//! Syntax (one instruction or directive per line; `;` and `#` to end of
//! line are comments — `#` only when it starts a token):
//!
//! ```text
//! ; data directives
//! .data 0x1000            ; set the data cursor
//! .u64 1, 2, 3            ; emit 64-bit words
//! .f64 1.5, -2.0          ; emit doubles
//! .zeros 64               ; reserve zeroed bytes
//!
//! ; code (.hint annotates the next instruction's destination slots:
//! ; noreuse / single / multi / unknown, optionally `, <writeback>`)
//! start:
//!     li   x1, 0x1000
//!     li   x2, 3
//! loop:
//!     ld.post x3, [x1], 8
//!     add  x4, x4, x3
//!     subi x2, x2, 1
//!     bne  x2, xzr, loop
//!     halt
//! ```
//!
//! Operand forms: registers `x0..x30`, `xzr`, `f0..f31`; immediates in
//! decimal or `0x…`; memory `[xN+imm]`, `[xN-imm]`, `[xN]` and
//! post-increment `[xN], imm`; branch targets are labels.

use crate::{reg, Asm, DataBuilder, Label, Program, ShareHint};
use std::collections::HashMap;
use std::fmt;

/// A parse failure, with the 1-based line it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

fn parse_reg(line: usize, token: &str) -> Result<crate::ArchReg, ParseError> {
    let t = token.trim();
    if t == "xzr" {
        return Ok(reg::zero());
    }
    if let Some(n) = t.strip_prefix('x') {
        if let Ok(i) = n.parse::<u8>() {
            if i < 32 {
                return Ok(reg::x(i));
            }
        }
    }
    if let Some(n) = t.strip_prefix('f') {
        if let Ok(i) = n.parse::<u8>() {
            if i < 32 {
                return Ok(reg::f(i));
            }
        }
    }
    err(line, format!("expected a register, found `{t}`"))
}

fn parse_imm(line: usize, token: &str) -> Result<i64, ParseError> {
    let t = token.trim().trim_start_matches('#');
    let (neg, t) = match t.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, t),
    };
    let value = if let Some(hex) = t.strip_prefix("0x") {
        i64::from_str_radix(hex, 16)
    } else {
        t.parse::<i64>()
    };
    match value.map(|v| if neg { v.checked_neg() } else { Some(v) }) {
        Ok(Some(v)) => Ok(v),
        _ => err(line, format!("expected an immediate, found `{token}`")),
    }
}

fn parse_f64(line: usize, token: &str) -> Result<f64, ParseError> {
    token.trim().parse::<f64>().map_err(|_| ParseError {
        line,
        message: format!("expected a float, found `{token}`"),
    })
}

/// Memory operand: `[xN]`, `[xN+imm]`, `[xN-imm]` or the post-increment
/// pair `[xN], imm` (the caller splits on commas first, so this sees the
/// bracket part and possibly a trailing immediate operand).
fn parse_mem(line: usize, token: &str) -> Result<(crate::ArchReg, i64), ParseError> {
    let t = token.trim();
    let inner = t
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| ParseError {
            line,
            message: format!("expected a memory operand like [x1+8], found `{t}`"),
        })?;
    if let Some((base, off)) = inner.split_once('+') {
        return Ok((parse_reg(line, base)?, parse_imm(line, off)?));
    }
    if let Some(pos) = inner.rfind('-') {
        if pos > 0 {
            let (base, off) = inner.split_at(pos);
            return Ok((parse_reg(line, base)?, -parse_imm(line, &off[1..])?));
        }
    }
    Ok((parse_reg(line, inner)?, 0))
}

/// Splits an operand string on top-level commas (brackets protect commas
/// — not that TRISC syntax has commas inside brackets, but it keeps the
/// tokenizer honest).
fn split_operands(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut cur = String::new();
    for c in s.chars() {
        match c {
            '[' => {
                depth += 1;
                cur.push(c);
            }
            ']' => {
                depth = depth.saturating_sub(1);
                cur.push(c);
            }
            ',' if depth == 0 => {
                out.push(cur.trim().to_string());
                cur.clear();
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_string());
    }
    out
}

/// Parses a textual assembly listing into a [`Program`].
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line for unknown
/// mnemonics, malformed operands, or undefined labels.
///
/// # Examples
///
/// ```
/// use regshare_isa::{parse_program, Machine};
///
/// let program = parse_program(r"
///     li   x1, 21
///     add  x1, x1, x1
///     halt
/// ").unwrap();
/// let mut m = Machine::new(program);
/// m.run(10).unwrap();
/// assert_eq!(m.int_reg(regshare_isa::reg::x(1)), 42);
/// ```
pub fn parse_program(source: &str) -> Result<Program, ParseError> {
    let mut asm = Asm::new();
    let mut data: Option<DataBuilder> = None;
    let mut labels = Labels::default();
    // The line of a `.hint` still waiting for its instruction.
    let mut pending_hint: Option<usize> = None;

    for (idx, raw) in source.lines().enumerate() {
        let line = idx + 1;
        let text = raw.split(';').next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }
        // Label definitions (possibly followed by an instruction).
        let mut rest = text;
        while let Some(colon) = rest.find(':') {
            let (name, after) = rest.split_at(colon);
            let name = name.trim();
            if name.is_empty() || name.contains(char::is_whitespace) {
                break;
            }
            labels.bind(&mut asm, name, line)?;
            rest = after[1..].trim();
        }
        if rest.is_empty() {
            continue;
        }
        // Directives.
        if let Some(dir) = rest.strip_prefix('.') {
            let (name, args) = dir.split_once(char::is_whitespace).unwrap_or((dir, ""));
            // `.hint` annotates code, not data — handle it before the
            // data builder springs into existence.
            if name == "hint" {
                let ops = split_operands(args);
                if ops.is_empty() || ops.len() > 2 {
                    return err(line, ".hint expects 1 or 2 operands: primary [, writeback]");
                }
                let parse_hint = |tok: &str| {
                    ShareHint::from_name(tok.trim()).ok_or_else(|| ParseError {
                        line,
                        message: format!(
                            "expected a hint (noreuse/single/multi/unknown), found `{tok}`"
                        ),
                    })
                };
                let primary = parse_hint(&ops[0])?;
                let writeback = match ops.get(1) {
                    Some(t) => parse_hint(t)?,
                    None => ShareHint::Unknown,
                };
                asm.hint_slots(primary, writeback);
                pending_hint = Some(line);
                continue;
            }
            let d = data.get_or_insert_with(|| DataBuilder::new(0x1_0000));
            match name {
                "data" => {
                    let base = parse_imm(line, args)? as u64;
                    *d = DataBuilder::new(base);
                }
                "u64" => {
                    for a in split_operands(args) {
                        let v = parse_imm(line, &a)?;
                        room(line, d, 8)?;
                        d.u64(v as u64);
                    }
                }
                "f64" => {
                    for a in split_operands(args) {
                        let v = parse_f64(line, &a)?;
                        room(line, d, 8)?;
                        d.f64(v);
                    }
                }
                "zeros" => {
                    let bytes = parse_imm(line, args)? as u64;
                    room(line, d, bytes)?;
                    d.zeros(bytes);
                }
                other => return err(line, format!("unknown directive .{other}")),
            }
            continue;
        }
        // Instructions.
        let (mnemonic, operand_str) = rest.split_once(char::is_whitespace).unwrap_or((rest, ""));
        let ops = split_operands(operand_str);
        let n = ops.len();
        let r = |i: usize| parse_reg(line, &ops[i]);
        let imm = |i: usize| parse_imm(line, &ops[i]);
        let need = |want: usize| -> Result<(), ParseError> {
            if n == want {
                Ok(())
            } else {
                err(
                    line,
                    format!("{mnemonic} expects {want} operands, found {n}"),
                )
            }
        };
        match mnemonic {
            // three-register ALU
            "add" | "sub" | "mul" | "udiv" | "sdiv" | "and" | "or" | "xor" | "sll" | "srl"
            | "sra" | "slt" | "sltu" | "seq" | "fadd" | "fsub" | "fmul" | "fdiv" | "fmin"
            | "fmax" | "feq" | "flt" | "fle" => {
                need(3)?;
                let (d0, s1, s2) = (r(0)?, r(1)?, r(2)?);
                match mnemonic {
                    "add" => asm.add(d0, s1, s2),
                    "sub" => asm.sub(d0, s1, s2),
                    "mul" => asm.mul(d0, s1, s2),
                    "udiv" => asm.udiv(d0, s1, s2),
                    "sdiv" => asm.sdiv(d0, s1, s2),
                    "and" => asm.and(d0, s1, s2),
                    "or" => asm.or(d0, s1, s2),
                    "xor" => asm.xor(d0, s1, s2),
                    "sll" => asm.sll(d0, s1, s2),
                    "srl" => asm.srl(d0, s1, s2),
                    "sra" => asm.sra(d0, s1, s2),
                    "slt" => asm.slt(d0, s1, s2),
                    "sltu" => asm.sltu(d0, s1, s2),
                    "seq" => asm.seq(d0, s1, s2),
                    "fadd" => asm.fadd(d0, s1, s2),
                    "fsub" => asm.fsub(d0, s1, s2),
                    "fmul" => asm.fmul(d0, s1, s2),
                    "fdiv" => asm.fdiv(d0, s1, s2),
                    "fmin" => asm.fmin(d0, s1, s2),
                    "fmax" => asm.fmax(d0, s1, s2),
                    "feq" => asm.feq(d0, s1, s2),
                    "flt" => asm.flt(d0, s1, s2),
                    "fle" => asm.fle(d0, s1, s2),
                    _ => unreachable!(),
                };
            }
            "fma" => {
                need(4)?;
                asm.fma(r(0)?, r(1)?, r(2)?, r(3)?);
            }
            // register-immediate
            "addi" | "subi" | "andi" | "ori" | "xori" | "slli" | "srli" | "srai" | "slti" => {
                need(3)?;
                let (d0, s1, i2) = (r(0)?, r(1)?, imm(2)?);
                match mnemonic {
                    "addi" => asm.addi(d0, s1, i2),
                    "subi" => asm.subi(d0, s1, i2),
                    "andi" => asm.andi(d0, s1, i2),
                    "ori" => asm.ori(d0, s1, i2),
                    "xori" => asm.xori(d0, s1, i2),
                    "slli" => asm.slli(d0, s1, i2),
                    "srli" => asm.srli(d0, s1, i2),
                    "srai" => asm.srai(d0, s1, i2),
                    "slti" => asm.slti(d0, s1, i2),
                    _ => unreachable!(),
                };
            }
            "li" => {
                need(2)?;
                asm.li(r(0)?, imm(1)?);
            }
            "fli" => {
                need(2)?;
                asm.fli(r(0)?, parse_f64(line, &ops[1])?);
            }
            "mov" => {
                need(2)?;
                asm.mov(r(0)?, r(1)?);
            }
            "fmov" => {
                need(2)?;
                asm.fmov(r(0)?, r(1)?);
            }
            "fneg" => {
                need(2)?;
                asm.fneg(r(0)?, r(1)?);
            }
            "fabs" => {
                need(2)?;
                asm.fabs(r(0)?, r(1)?);
            }
            "fsqrt" => {
                need(2)?;
                asm.fsqrt(r(0)?, r(1)?);
            }
            "cvt.i.f" => {
                need(2)?;
                asm.cvt_i_f(r(0)?, r(1)?);
            }
            "cvt.f.i" => {
                need(2)?;
                asm.cvt_f_i(r(0)?, r(1)?);
            }
            // memory
            "ld" | "ldw" | "ldb" | "fld" => {
                need(2)?;
                let (base, off) = parse_mem(line, &ops[1])?;
                match mnemonic {
                    "ld" => asm.ld(r(0)?, base, off),
                    "ldw" => asm.ldw(r(0)?, base, off),
                    "ldb" => asm.ldb(r(0)?, base, off),
                    "fld" => asm.fld(r(0)?, base, off),
                    _ => unreachable!(),
                };
            }
            "st" | "stw" | "stb" | "fst" => {
                need(2)?;
                let (base, off) = parse_mem(line, &ops[1])?;
                match mnemonic {
                    "st" => asm.st(r(0)?, base, off),
                    "stw" => asm.stw(r(0)?, base, off),
                    "stb" => asm.stb(r(0)?, base, off),
                    "fst" => asm.fst(r(0)?, base, off),
                    _ => unreachable!(),
                };
            }
            "ld.post" | "fld.post" | "st.post" | "fst.post" => {
                need(3)?;
                let (base, off0) = parse_mem(line, &ops[1])?;
                if off0 != 0 {
                    return err(line, "post-increment base takes no offset: use [xN], imm");
                }
                let stride = imm(2)?;
                match mnemonic {
                    "ld.post" => asm.ld_post(r(0)?, base, stride),
                    "fld.post" => asm.fld_post(r(0)?, base, stride),
                    "st.post" => asm.st_post(r(0)?, base, stride),
                    "fst.post" => asm.fst_post(r(0)?, base, stride),
                    _ => unreachable!(),
                };
            }
            // control
            "beq" | "bne" | "blt" | "bge" | "bltu" | "bgeu" => {
                need(3)?;
                let (s1, s2) = (r(0)?, r(1)?);
                let target = labels.target(&mut asm, ops[2].trim(), line);
                match mnemonic {
                    "beq" => asm.beq(s1, s2, target),
                    "bne" => asm.bne(s1, s2, target),
                    "blt" => asm.blt(s1, s2, target),
                    "bge" => asm.bge(s1, s2, target),
                    "bltu" => asm.bltu(s1, s2, target),
                    "bgeu" => asm.bgeu(s1, s2, target),
                    _ => unreachable!(),
                };
            }
            "jmp" => {
                need(1)?;
                let target = labels.target(&mut asm, ops[0].trim(), line);
                asm.jmp(target);
            }
            "call" => {
                need(1)?;
                let target = labels.target(&mut asm, ops[0].trim(), line);
                asm.call(target);
            }
            "ret" => {
                need(0)?;
                asm.ret();
            }
            "nop" => {
                need(0)?;
                asm.nop();
            }
            "halt" => {
                need(0)?;
                asm.halt();
            }
            other => return err(line, format!("unknown mnemonic `{other}`")),
        }
        pending_hint = None;
    }
    if let Some(line) = pending_hint {
        return err(line, ".hint is not followed by an instruction");
    }
    let len = asm.here();
    if len == 0 {
        return err(0, "the program has no instructions");
    }
    labels.check_targets(len)?;
    if let Some(d) = data {
        asm.set_data(d.build());
    }
    Ok(asm.assemble())
}

/// The labels of one listing, keyed by name.
#[derive(Default)]
struct Labels(HashMap<String, LabelUse>);

struct LabelUse {
    label: Label,
    /// First line naming it as a branch target.
    first_target: Option<usize>,
    /// Line and instruction index it was bound at.
    bound: Option<(usize, u32)>,
}

impl Labels {
    fn entry(&mut self, asm: &mut Asm, name: &str) -> &mut LabelUse {
        self.0.entry(name.to_string()).or_insert_with(|| LabelUse {
            label: asm.label(),
            first_target: None,
            bound: None,
        })
    }

    /// The label `name`, used as a branch target on `line`.
    fn target(&mut self, asm: &mut Asm, name: &str, line: usize) -> Label {
        let l = self.entry(asm, name);
        l.first_target.get_or_insert(line);
        l.label
    }

    /// Binds `name` to the next instruction; a second definition is an
    /// error.
    fn bind(&mut self, asm: &mut Asm, name: &str, line: usize) -> Result<(), ParseError> {
        let at = asm.here();
        let l = self.entry(asm, name);
        if let Some((first, _)) = l.bound {
            return err(
                line,
                format!("label `{name}` is already defined on line {first}"),
            );
        }
        l.bound = Some((line, at));
        let label = l.label;
        asm.bind(label);
        Ok(())
    }

    /// Every branch target must mark one of the `len` instructions;
    /// reports the first offending use in source order.
    fn check_targets(&self, len: u32) -> Result<(), ParseError> {
        let bad = self
            .0
            .iter()
            .filter_map(|(name, l)| {
                let line = l.first_target?;
                match l.bound {
                    Some((_, at)) if at < len => None,
                    Some(_) => Some((line, name, "marks no instruction (nothing follows it)")),
                    None => Some((line, name, "is never defined")),
                }
            })
            .min();
        match bad {
            Some((line, name, what)) => err(line, format!("label `{name}` {what}")),
            None => Ok(()),
        }
    }
}

/// Errors unless the data cursor can advance by `bytes` without leaving
/// the address space.
fn room(line: usize, d: &DataBuilder, bytes: u64) -> Result<(), ParseError> {
    match d.cursor().checked_add(bytes) {
        Some(_) => Ok(()),
        None => err(line, "data runs past the end of the address space"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Machine;

    #[test]
    fn parses_and_runs_a_loop() {
        let p = parse_program(
            r"
            ; count to five
                li x1, 5
                li x2, 0
            top:
                addi x2, x2, 1
                subi x1, x1, 1
                bne  x1, xzr, top
                halt
            ",
        )
        .expect("valid program");
        let mut m = Machine::new(p);
        m.run(100).unwrap();
        assert_eq!(m.int_reg(reg::x(2)), 5);
    }

    #[test]
    fn parses_data_directives_and_memory_ops() {
        let p = parse_program(
            r"
            .data 0x2000
            .u64 10, 20, 30
            .zeros 8
                li x1, 0x2000
                ld.post x2, [x1], 8
                ld.post x3, [x1], 8
                ld x4, [x1]
                add x5, x2, x3
                add x5, x5, x4
                st x5, [x1+8]
                halt
            ",
        )
        .expect("valid program");
        let mut m = Machine::new(p);
        m.run(100).unwrap();
        assert_eq!(m.memory().read_u64(0x2000 + 24), 60);
    }

    #[test]
    fn parses_fp_and_negative_offsets() {
        let p = parse_program(
            r"
            .data 0x3000
            .f64 1.5, 2.5
                li x1, 0x3010
                fld f1, [x1-16]
                fld f2, [x1-8]
                fadd f3, f1, f2
                fst f3, [x1]
                halt
            ",
        )
        .expect("valid program");
        let mut m = Machine::new(p);
        m.run(100).unwrap();
        assert_eq!(m.memory().read_f64(0x3010), 4.0);
    }

    #[test]
    fn call_and_ret_roundtrip() {
        let p = parse_program(
            r"
                li x1, 1
                call double
                call double
                halt
            double:
                add x1, x1, x1
                ret
            ",
        )
        .expect("valid program");
        let mut m = Machine::new(p);
        m.run(100).unwrap();
        assert_eq!(m.int_reg(reg::x(1)), 4);
    }

    #[test]
    fn reports_unknown_mnemonic_with_line() {
        let e = parse_program("nop\nfrobnicate x1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("frobnicate"));
        assert!(!format!("{e}").is_empty());
    }

    #[test]
    fn reports_bad_operand_counts() {
        let e = parse_program("add x1, x2\nhalt\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("expects 3"));
    }

    #[test]
    fn reports_undefined_label() {
        let e = parse_program("jmp nowhere\nhalt\n").unwrap_err();
        assert!(e.message.contains("never defined"));
    }

    #[test]
    fn rejects_post_increment_with_offset() {
        let e = parse_program("ld.post x1, [x2+8], 8\nhalt\n").unwrap_err();
        assert!(e.message.contains("no offset"));
    }

    #[test]
    fn hint_directive_annotates_the_next_instruction() {
        use crate::{DefSlot, ShareHint};
        let p = parse_program(
            r"
                .hint single
                li x1, 5
                .hint noreuse, multi
                ld.post x2, [x1], 8
                add x3, x1, x1
                halt
            ",
        )
        .expect("valid program");
        let t = p.hints().expect("hint table attached");
        assert_eq!(t.get(0, DefSlot::Primary), ShareHint::SingleUse);
        assert_eq!(t.get(1, DefSlot::Primary), ShareHint::NoReuse);
        assert_eq!(t.get(1, DefSlot::Writeback), ShareHint::Multi);
        assert_eq!(t.get(2, DefSlot::Primary), ShareHint::Unknown);
    }

    #[test]
    fn reports_bad_hint_names() {
        let e = parse_program(".hint sometimes\nhalt\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("sometimes"));
    }

    #[test]
    fn hex_and_negative_immediates() {
        let p = parse_program("li x1, 0x10\nli x2, -0x10\nadd x3, x1, x2\nhalt\n").unwrap();
        let mut m = Machine::new(p);
        m.run(10).unwrap();
        assert_eq!(m.int_reg(reg::x(3)), 0);
    }
}

/// Robustness fuzzing: the assembler must answer any text — arbitrary,
/// a valid listing corrupted, or lines spliced from assembly tokens and
/// extreme operands — with a program or a [`ParseError`], never a panic
/// or a hang.
#[cfg(test)]
mod fuzz {
    use super::*;
    use proptest::prelude::*;
    use std::sync::mpsc;
    use std::time::Duration;

    const VALID: &str = "\
.data 0x2000
.u64 1, 0x10, -3
.f64 1.5, -2.0
.zeros 16
start:
    li   x1, 0x2000
    li   x2, 3
loop: .hint single, multi
    ld.post x3, [x1], 8
    fld  f1, [x1-8]
    add  x4, x4, x3
    subi x2, x2, 1
    bne  x2, xzr, loop
    call done
    halt
done: ret
";

    /// Tokens the spliced lines draw from: mnemonics, directives,
    /// operands and the extremes of every number form.
    const TOKENS: &[&str] = &[
        "li",
        "add",
        "addi",
        "ld",
        "st",
        "ld.post",
        "fli",
        "bne",
        "jmp",
        "call",
        "ret",
        "halt",
        "nop",
        "fma",
        ".data",
        ".u64",
        ".f64",
        ".zeros",
        ".hint",
        "single",
        "x1",
        "x31",
        "xzr",
        "f0",
        "f32",
        "[x1]",
        "[x1+8]",
        "[x2-8]",
        "[x1--1]",
        "[",
        "]",
        ",",
        ":",
        "a:",
        "a",
        "b:",
        ";",
        "#",
        "0",
        "-1",
        "0x10",
        "-0x10",
        "0x-1",
        "9223372036854775807",
        "-9223372036854775808",
        "--9223372036854775808",
        "0x7fffffffffffffff",
        "0x-8000000000000000",
        "-0x-8000000000000000",
        "0xffffffffffffffff",
        "1e308",
        "nan",
    ];

    /// Parses `source` on a helper thread: a panic or a parse still
    /// running after five seconds fails the property.
    fn parse(source: String) -> Result<Program, ParseError> {
        let (tx, rx) = mpsc::channel();
        let shown: String = source.chars().take(120).collect();
        std::thread::spawn(move || {
            let _ = tx.send(parse_program(&source));
        });
        match rx.recv_timeout(Duration::from_secs(5)) {
            Ok(result) => result,
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("parse_program hung on {shown:?}"),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                panic!("parse_program panicked on {shown:?}")
            }
        }
    }

    #[test]
    fn the_uncorrupted_listing_parses() {
        let p = parse(VALID.to_string()).expect("valid listing");
        assert_eq!(p.len(), 10);
    }

    /// Inputs the fuzz suites found panicking, each now a parse error
    /// on the right line.
    #[test]
    fn found_panics_are_errors() {
        let cases = [
            // A label bound twice tripped the assembler's assertion.
            ("a: a: nop\nhalt\n", 1, "already defined"),
            // Negating i64::MIN overflowed.
            ("li x1, --9223372036854775808\nhalt\n", 1, "immediate"),
            ("li x1, -0x-8000000000000000\nhalt\n", 1, "immediate"),
            // The data cursor ran off the address space.
            (".zeros -1\nhalt\n", 1, "address space"),
            (".data -4\n.u64 1\nhalt\n", 2, "address space"),
            // Assembler assertions the parser used to catch by unwinding.
            ("nop\n.hint single\n", 2, "not followed"),
            ("; nothing\n", 0, "no instructions"),
            ("jmp end\nhalt\nend:\n", 1, "marks no instruction"),
        ];
        for (source, line, needle) in cases {
            let e = parse(source.to_string()).unwrap_err();
            assert_eq!(e.line, line, "{source:?}: {e}");
            assert!(e.message.contains(needle), "{source:?}: {e}");
        }
        // A trailing label nothing branches to stays legal.
        assert!(parse("halt\nend:\n".to_string()).is_ok());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_text_never_panics(chars in prop::collection::vec(any::<u32>(), 0..256)) {
            // Mostly ASCII, with some of everything else.
            let text: String = chars
                .iter()
                .map(|&c| {
                    if c % 4 == 0 {
                        char::from_u32(c >> 8).unwrap_or('\u{fffd}')
                    } else {
                        (b' ' + (c % 95) as u8) as char
                    }
                })
                .collect();
            let _ = parse(text);
        }

        #[test]
        fn corrupted_listings_never_panic(
            edits in prop::collection::vec((any::<usize>(), any::<u8>()), 1..8),
            keep in 0usize..400,
        ) {
            let mut bytes = VALID.as_bytes().to_vec();
            for &(at, b) in &edits {
                let n = bytes.len();
                bytes[at % n] = b;
            }
            bytes.truncate(keep);
            let _ = parse(String::from_utf8_lossy(&bytes).into_owned());
        }

        #[test]
        fn spliced_token_lines_never_panic(
            lines in prop::collection::vec(prop::collection::vec(any::<usize>(), 0..6), 1..12),
        ) {
            let text: String = lines
                .iter()
                .map(|line| {
                    let words: Vec<&str> = line.iter().map(|&i| TOKENS[i % TOKENS.len()]).collect();
                    words.join(" ") + "\n"
                })
                .collect();
            let _ = parse(text);
        }
    }
}
