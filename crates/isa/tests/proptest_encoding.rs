//! Property-based tests: every instruction survives an encode/decode
//! round trip, and decoding never panics on arbitrary (hostile) words.

use proptest::prelude::*;
use sfi_isa::{decode, encode, Instruction, InstructionKind, Program, Reg};

fn reg() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(Reg)
}

/// Word offsets representable by the 26-bit branch/jump encodings.
fn branch_offset() -> impl Strategy<Value = i32> {
    -(1i32 << 25)..(1i32 << 25)
}

/// A strategy covering **every** `Instruction` variant (all 36).
fn instruction() -> impl Strategy<Value = Instruction> {
    prop_oneof![
        (reg(), reg(), reg()).prop_map(|(rd, ra, rb)| Instruction::Add { rd, ra, rb }),
        (reg(), reg(), reg()).prop_map(|(rd, ra, rb)| Instruction::Sub { rd, ra, rb }),
        (reg(), reg(), reg()).prop_map(|(rd, ra, rb)| Instruction::And { rd, ra, rb }),
        (reg(), reg(), reg()).prop_map(|(rd, ra, rb)| Instruction::Or { rd, ra, rb }),
        (reg(), reg(), reg()).prop_map(|(rd, ra, rb)| Instruction::Xor { rd, ra, rb }),
        (reg(), reg(), reg()).prop_map(|(rd, ra, rb)| Instruction::Mul { rd, ra, rb }),
        (reg(), reg(), reg()).prop_map(|(rd, ra, rb)| Instruction::Sll { rd, ra, rb }),
        (reg(), reg(), reg()).prop_map(|(rd, ra, rb)| Instruction::Srl { rd, ra, rb }),
        (reg(), reg(), reg()).prop_map(|(rd, ra, rb)| Instruction::Sra { rd, ra, rb }),
        (reg(), reg(), any::<i16>()).prop_map(|(rd, ra, imm)| Instruction::Addi { rd, ra, imm }),
        (reg(), reg(), any::<u16>()).prop_map(|(rd, ra, imm)| Instruction::Andi { rd, ra, imm }),
        (reg(), reg(), any::<u16>()).prop_map(|(rd, ra, imm)| Instruction::Ori { rd, ra, imm }),
        (reg(), reg(), any::<u16>()).prop_map(|(rd, ra, imm)| Instruction::Xori { rd, ra, imm }),
        (reg(), reg(), any::<i16>()).prop_map(|(rd, ra, imm)| Instruction::Muli { rd, ra, imm }),
        (reg(), reg(), 0u8..32).prop_map(|(rd, ra, shamt)| Instruction::Slli { rd, ra, shamt }),
        (reg(), reg(), 0u8..32).prop_map(|(rd, ra, shamt)| Instruction::Srli { rd, ra, shamt }),
        (reg(), reg(), 0u8..32).prop_map(|(rd, ra, shamt)| Instruction::Srai { rd, ra, shamt }),
        (reg(), any::<u16>()).prop_map(|(rd, imm)| Instruction::Movhi { rd, imm }),
        (reg(), reg()).prop_map(|(ra, rb)| Instruction::Sfeq { ra, rb }),
        (reg(), reg()).prop_map(|(ra, rb)| Instruction::Sfne { ra, rb }),
        (reg(), reg()).prop_map(|(ra, rb)| Instruction::Sfltu { ra, rb }),
        (reg(), reg()).prop_map(|(ra, rb)| Instruction::Sfgeu { ra, rb }),
        (reg(), reg()).prop_map(|(ra, rb)| Instruction::Sfgtu { ra, rb }),
        (reg(), reg()).prop_map(|(ra, rb)| Instruction::Sfleu { ra, rb }),
        (reg(), reg()).prop_map(|(ra, rb)| Instruction::Sflts { ra, rb }),
        (reg(), reg()).prop_map(|(ra, rb)| Instruction::Sfges { ra, rb }),
        (reg(), reg()).prop_map(|(ra, rb)| Instruction::Sfgts { ra, rb }),
        (reg(), reg()).prop_map(|(ra, rb)| Instruction::Sfles { ra, rb }),
        (reg(), reg(), any::<i16>()).prop_map(|(rd, ra, offset)| Instruction::Lwz {
            rd,
            ra,
            offset
        }),
        (reg(), reg(), any::<i16>()).prop_map(|(ra, rb, offset)| Instruction::Sw {
            ra,
            rb,
            offset
        }),
        branch_offset().prop_map(|offset| Instruction::Bf { offset }),
        branch_offset().prop_map(|offset| Instruction::Bnf { offset }),
        branch_offset().prop_map(|offset| Instruction::J { offset }),
        branch_offset().prop_map(|offset| Instruction::Jal { offset }),
        reg().prop_map(|ra| Instruction::Jr { ra }),
        Just(Instruction::Nop),
    ]
}

/// One exemplar per variant; `assert_exhaustive` fails to compile if a
/// variant is added without extending this list.
fn every_variant() -> Vec<Instruction> {
    use Instruction::*;
    let (rd, ra, rb) = (Reg(3), Reg(4), Reg(5));
    let exemplars = vec![
        Add { rd, ra, rb },
        Sub { rd, ra, rb },
        And { rd, ra, rb },
        Or { rd, ra, rb },
        Xor { rd, ra, rb },
        Mul { rd, ra, rb },
        Sll { rd, ra, rb },
        Srl { rd, ra, rb },
        Sra { rd, ra, rb },
        Addi { rd, ra, imm: -7 },
        Andi {
            rd,
            ra,
            imm: 0xF0F0,
        },
        Ori {
            rd,
            ra,
            imm: 0x00FF,
        },
        Xori {
            rd,
            ra,
            imm: 0xAAAA,
        },
        Muli { rd, ra, imm: 300 },
        Slli { rd, ra, shamt: 31 },
        Srli { rd, ra, shamt: 1 },
        Srai { rd, ra, shamt: 16 },
        Movhi { rd, imm: 0xBEEF },
        Sfeq { ra, rb },
        Sfne { ra, rb },
        Sfltu { ra, rb },
        Sfgeu { ra, rb },
        Sfgtu { ra, rb },
        Sfleu { ra, rb },
        Sflts { ra, rb },
        Sfges { ra, rb },
        Sfgts { ra, rb },
        Sfles { ra, rb },
        Lwz { rd, ra, offset: -4 },
        Sw { ra, rb, offset: 8 },
        Bf { offset: -3 },
        Bnf { offset: 2 },
        J { offset: 100 },
        Jal { offset: -100 },
        Jr { ra },
        Nop,
    ];
    fn assert_exhaustive(i: &Instruction) {
        use Instruction::*;
        match i {
            Add { .. }
            | Sub { .. }
            | And { .. }
            | Or { .. }
            | Xor { .. }
            | Mul { .. }
            | Sll { .. }
            | Srl { .. }
            | Sra { .. }
            | Addi { .. }
            | Andi { .. }
            | Ori { .. }
            | Xori { .. }
            | Muli { .. }
            | Slli { .. }
            | Srli { .. }
            | Srai { .. }
            | Movhi { .. }
            | Sfeq { .. }
            | Sfne { .. }
            | Sfltu { .. }
            | Sfgeu { .. }
            | Sfgtu { .. }
            | Sfleu { .. }
            | Sflts { .. }
            | Sfges { .. }
            | Sfgts { .. }
            | Sfles { .. }
            | Lwz { .. }
            | Sw { .. }
            | Bf { .. }
            | Bnf { .. }
            | J { .. }
            | Jal { .. }
            | Jr { .. }
            | Nop => {}
        }
    }
    exemplars.iter().for_each(assert_exhaustive);
    exemplars
}

#[test]
fn every_variant_roundtrips() {
    for i in every_variant() {
        let word = encode(i);
        assert_eq!(decode(word), Ok(i), "variant {i} must round-trip");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn encode_decode_roundtrip(i in instruction()) {
        let word = encode(i);
        prop_assert_eq!(decode(word).expect("every encoded word decodes"), i);
    }

    #[test]
    fn decode_never_panics(word in any::<u32>()) {
        let _ = decode(word);
    }

    #[test]
    fn program_from_words_never_panics(words in prop::collection::vec(any::<u32>(), 0..64)) {
        // Hostile instruction streams must be rejected with a typed error,
        // never a panic; when they do decode, re-encoding is the identity
        // on the words that survive a decode→encode round trip.
        if let Ok(program) = Program::from_words(&words) {
            let back = program.to_words();
            prop_assert_eq!(back.len(), words.len());
            let again = Program::from_words(&back).expect("canonical words decode");
            prop_assert_eq!(again, program);
        }
    }

    #[test]
    fn program_roundtrips_through_words(instrs in prop::collection::vec(instruction(), 0..64)) {
        let program = Program::new(instrs);
        let words = program.to_words();
        let back = Program::from_words(&words).expect("encoded program decodes");
        prop_assert_eq!(back, program);
    }

    #[test]
    fn alu_classification_is_consistent(i in instruction()) {
        // An instruction has an ALU class exactly when it is classified as
        // an ALU instruction.
        prop_assert_eq!(i.alu_class().is_some(), i.kind() == InstructionKind::Alu);
    }
}
