//! DBDecode — the DBCoder decoder in DynaRisc assembly.
//!
//! Parses the `ULEA` container (magic, version, scheme, original length)
//! and decompresses the LZSS payload (window 4096, lengths 3..=18, flag
//! byte + 8 items — see `ule_compress::lzss`). This is the instruction
//! stream Micr'Olonys archives as *system emblems* (Figure 2a step 5).
//!
//! Register allocation:
//!
//! | reg  | use                          |
//! |------|------------------------------|
//! | R0/R1| 32-bit scratch pair (hi/lo)  |
//! | R2   | current flag byte            |
//! | R3   | items left in group          |
//! | R4   | temp                         |
//! | R5   | literal / token low / dist   |
//! | R6   | token high / match length    |
//! | R7   | copy temp                    |
//! | R10  | remaining output bytes, low  |
//! | R11  | remaining output bytes, high |
//! | D0   | source (archive) pointer     |
//! | D1   | destination pointer          |
//! | D2   | match source pointer         |
//! | D3   | scratch address register     |

use crate::asm::Asm;
use crate::layout::{build_memory, read_output, IN_BASE, OUT_LEN_ADDR};
use crate::programs::{status, ProgError};
use crate::vm::Vm;

/// Container header length (mirrors `ule_compress::container::HEADER_LEN`).
#[allow(dead_code)]
const HEADER_LEN: u16 = 18;
/// Scheme id of LZSS in the container.
const SCHEME_LZSS: u16 = 2;

/// Build the DBDecode instruction stream.
pub fn program() -> Vec<u16> {
    let mut a = Asm::new();
    let err_magic = a.label();
    let err_version = a.label();
    let err_scheme = a.label();
    let main_loop = a.label();
    let group_loop = a.label();
    let do_match = a.label();
    let copy_loop = a.label();
    let next_item = a.label();
    let done = a.label();
    let finish = a.label();

    // --- header checks ---
    a.ldi_d(0, IN_BASE);
    for (i, ch) in b"ULEA".iter().enumerate() {
        let _ = i;
        a.ldm_byte_inc(4, 0);
        a.cmpi(4, *ch as u16);
        a.jnz(err_magic);
    }
    a.ldm_byte_inc(4, 0); // version
    a.cmpi(4, 1);
    a.jnz(err_version);
    a.ldm_byte_inc(4, 0); // scheme
    a.cmpi(4, SCHEME_LZSS);
    a.jnz(err_scheme);
    // original length u64 LE at offset 6; we use the low 32 bits.
    a.ldm_word_inc(10, 0); // len low 16
    a.ldm_word_inc(11, 0); // len high 16
                           // skip len[4..8] and crc32 (4+4 bytes)
    a.addi_d(0, 8);

    // D1 = out_base (u32 LE at 0x18)
    a.ldi_d(3, 0x18);
    a.ldm_word_inc(1, 3); // low half
    a.ldm_word_inc(0, 3); // high half
    a.move_d_pair(1, 0); // D1 = (R0:R1)

    // --- main decode loop ---
    a.bind(main_loop);
    a.pair_test_zero(11, 10, 4);
    a.jz(done);
    a.ldm_byte_inc(2, 0); // flag byte
    a.ldi(3, 8);

    a.bind(group_loop);
    a.pair_test_zero(11, 10, 4);
    a.jz(done);
    a.move_r(4, 2);
    a.andi(4, 1);
    a.jz(do_match);
    // literal
    a.ldm_byte_inc(5, 0);
    a.stm_byte_inc(5, 1);
    a.pair_subi(11, 10, 1);
    a.jump(next_item);

    // match
    a.bind(do_match);
    a.ldm_byte_inc(5, 0); // token low
    a.ldm_byte_inc(6, 0); // token high
    a.lsl_i(6, 8);
    a.or(5, 6); // full token
    a.move_r(6, 5);
    a.andi(5, 0x0FFF);
    a.addi(5, 1); // dist in 1..=4096
    a.lsr_i(6, 12);
    a.addi(6, 3); // len in 3..=18
                  // D2 = D1 - dist (32-bit)
    a.move_r_dlo(1, 1); // R1 = D1 low
    a.move_r_dhi(0, 1); // R0 = D1 high
    a.sub(1, 5);
    a.sbbi(0, 0);
    a.move_d_pair(2, 0); // D2 = (R0:R1)

    a.bind(copy_loop);
    a.ldm_byte_inc(7, 2);
    a.stm_byte_inc(7, 1);
    a.pair_subi(11, 10, 1);
    a.pair_test_zero(11, 10, 4);
    a.jz(done);
    a.subi(6, 1);
    a.jnz(copy_loop);

    a.bind(next_item);
    a.lsr_i(2, 1);
    a.subi(3, 1);
    a.jnz(group_loop);
    a.jump(main_loop);

    // --- epilogue: out_len = original length (re-read from the header) ---
    a.bind(done);
    a.ldi_d(3, IN_BASE + 6);
    a.ldm_word_inc(4, 3);
    a.ldm_word_inc(5, 3);
    a.ldi_d(3, OUT_LEN_ADDR);
    a.stm_word_inc(4, 3);
    a.stm_word_inc(5, 3);
    a.ldi(4, status::OK);
    a.jump(finish);

    a.bind(err_magic);
    a.ldi(4, status::BAD_MAGIC);
    a.jump(finish);
    a.bind(err_version);
    a.ldi(4, status::BAD_VERSION);
    a.jump(finish);
    a.bind(err_scheme);
    a.ldi(4, status::BAD_SCHEME);
    a.jump(finish);

    a.bind(finish);
    a.ldi_d(3, 0);
    a.stm_word(4, 3); // status word at address 0
    a.ret();
    a.finish()
}

/// Step budget per input byte (LZSS decode is linear; this is generous).
pub fn step_budget(archive_len: usize, out_len: usize) -> u64 {
    1_000 + 64 * (archive_len as u64 + out_len as u64)
}

/// Run DBDecode on the host DynaRisc VM: `archive` is a `ULEA` container
/// with the LZSS scheme; returns the decompressed bytes.
pub fn run(archive: &[u8]) -> Result<Vec<u8>, ProgError> {
    // The expected output size comes from the container header.
    let out_len = if archive.len() >= 14 {
        u64::from_le_bytes(archive[6..14].try_into().unwrap()) as usize
    } else {
        0
    };
    let (mem, out_base) = build_memory(archive, out_len, &[]);
    let mut vm = Vm::new(program(), mem);
    vm.run(step_budget(archive.len(), out_len))?;
    let st = u16::from_le_bytes([vm.mem[0], vm.mem[1]]);
    if st != status::OK {
        return Err(ProgError::Status(st));
    }
    Ok(read_output(&vm.mem, out_base))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ule_compress::{compress, Scheme};

    fn archive(data: &[u8]) -> Vec<u8> {
        compress(Scheme::Lzss, data)
    }

    #[test]
    fn decodes_simple_text() {
        let data = b"hello hello hello hello hello!";
        assert_eq!(run(&archive(data)).unwrap(), data);
    }

    #[test]
    fn decodes_empty() {
        assert_eq!(run(&archive(b"")).unwrap(), b"");
    }

    #[test]
    fn decodes_sql_like_dump() {
        let mut data = Vec::new();
        for i in 0..400 {
            data.extend_from_slice(
                format!("{}\t{}\tCustomer#{:09}\t{}\n", i, i * 31 % 25, i, 1000 - i).as_bytes(),
            );
        }
        assert_eq!(run(&archive(&data)).unwrap(), data);
    }

    #[test]
    fn decodes_overlapping_runs() {
        let data = vec![b'z'; 5000];
        assert_eq!(run(&archive(&data)).unwrap(), data);
    }

    #[test]
    fn decodes_binary() {
        let data: Vec<u8> = (0..3000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 11) as u8)
            .collect();
        assert_eq!(run(&archive(&data)).unwrap(), data);
    }

    #[test]
    fn matches_native_decoder_exactly() {
        let data = b"The quick brown fox jumps over the lazy dog. The quick brown fox!";
        let arc = archive(data);
        let native = ule_compress::decompress(&arc).unwrap();
        let emulated = run(&arc).unwrap();
        assert_eq!(native, emulated);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut arc = archive(b"data");
        arc[0] = b'X';
        assert_eq!(run(&arc).unwrap_err(), ProgError::Status(status::BAD_MAGIC));
    }

    #[test]
    fn rejects_wrong_scheme() {
        let arc = compress(Scheme::Lza, b"not lzss");
        assert_eq!(
            run(&arc).unwrap_err(),
            ProgError::Status(status::BAD_SCHEME)
        );
    }

    #[test]
    fn rejects_wrong_version() {
        let mut arc = archive(b"data");
        arc[4] = 7;
        assert_eq!(
            run(&arc).unwrap_err(),
            ProgError::Status(status::BAD_VERSION)
        );
    }

    #[test]
    fn program_is_compact_enough_for_system_emblems() {
        // The whole decoder must comfortably fit one emblem as bytes.
        let words = program();
        assert!(words.len() < 512, "dbdecode is {} words", words.len());
    }
}
