//! DEF-lite: the Design Exchange Format subset the methodology consumes.
//!
//! The paper "reads the circuit-description as a DEF file" and extracts
//! the gate (x, y) coordinates for the spatial-correlation model. This
//! module reads and writes the DEF pieces that matter for that purpose:
//!
//! ```text
//! VERSION 5.6 ;
//! DESIGN c432 ;
//! UNITS DISTANCE MICRONS 1000 ;
//! DIEAREA ( 0 0 ) ( 130000 130000 ) ;
//! COMPONENTS 160 ;
//! - g001 NAND2 + PLACED ( 5000 3000 ) N ;
//! ...
//! END COMPONENTS
//! END DESIGN
//! ```
//!
//! Coordinates are stored in DEF database units (`UNITS DISTANCE MICRONS
//! <dbu>` per micron) and converted to microns on read.

use crate::circuit::Circuit;
use crate::error::NetlistError;
use crate::place::Placement;
use crate::Result;
use std::collections::HashMap;
use std::fmt;

/// A parsed DEF-lite file: design name, die side (microns) and component
/// positions (microns).
#[derive(Debug, Clone, PartialEq)]
pub struct DefDesign {
    /// DESIGN name.
    pub name: String,
    /// Die side in microns (the larger of the two DIEAREA extents).
    pub die_side: f64,
    /// Component name → (x, y) in microns.
    pub components: HashMap<String, (f64, f64)>,
}

impl DefDesign {
    /// Builds a [`Placement`] for `circuit` by looking every gate up by
    /// instance name.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UndefinedName`] if a gate has no placed
    /// component.
    pub fn placement_for(&self, circuit: &Circuit) -> Result<Placement> {
        let mut positions = Vec::with_capacity(circuit.gate_count());
        for g in circuit.gates() {
            let &(x, y) =
                self.components
                    .get(&g.name)
                    .ok_or_else(|| NetlistError::UndefinedName {
                        name: g.name.clone(),
                    })?;
            positions.push((x, y));
        }
        Placement::from_positions(circuit, positions, self.die_side)
    }
}

/// Parses DEF-lite text.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] with the offending line for anything
/// the subset does not understand.
pub fn parse(text: &str) -> Result<DefDesign> {
    let mut name = String::new();
    let mut dbu_per_micron = 1000.0;
    let mut die_side = 0.0f64;
    let mut components = HashMap::new();
    let mut in_components = false;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        match toks[0] {
            "VERSION" | "DIVIDERCHAR" | "BUSBITCHARS" => {}
            "DESIGN" if toks.len() >= 2 => name = toks[1].trim_end_matches(';').to_string(),
            "UNITS" => {
                // UNITS DISTANCE MICRONS 1000 ;
                if let Some(v) = toks.iter().find_map(|t| t.parse::<f64>().ok()) {
                    if v <= 0.0 {
                        return Err(NetlistError::Parse {
                            line: line_no,
                            col: crate::col_in(raw, line),
                            message: format!("non-positive DBU {v}"),
                        });
                    }
                    dbu_per_micron = v;
                }
            }
            "DIEAREA" => {
                let nums: Vec<f64> = toks.iter().filter_map(|t| t.parse::<f64>().ok()).collect();
                if nums.len() != 4 {
                    return Err(NetlistError::Parse {
                        line: line_no,
                        col: crate::col_in(raw, line),
                        message: "DIEAREA needs two coordinate pairs".into(),
                    });
                }
                let (w, h) = (nums[2] - nums[0], nums[3] - nums[1]);
                if w <= 0.0 || h <= 0.0 {
                    return Err(NetlistError::Parse {
                        line: line_no,
                        col: crate::col_in(raw, line),
                        message: format!("non-positive DIEAREA extent {w} x {h}"),
                    });
                }
                die_side = w.max(h);
            }
            "COMPONENTS" => in_components = true,
            "END" => {
                if toks.get(1) == Some(&"COMPONENTS") {
                    in_components = false;
                }
            }
            "-" if in_components => {
                // - <name> <cell> + PLACED ( x y ) N ;
                let comp = toks.get(1).ok_or_else(|| NetlistError::Parse {
                    line: line_no,
                    col: crate::col_in(raw, line),
                    message: "component line missing name".into(),
                })?;
                let nums: Vec<f64> = toks.iter().filter_map(|t| t.parse::<f64>().ok()).collect();
                if nums.len() < 2 {
                    return Err(NetlistError::Parse {
                        line: line_no,
                        col: crate::col_in(raw, comp),
                        message: format!("component `{comp}` has no placed coordinates"),
                    });
                }
                components.insert(
                    comp.to_string(),
                    (nums[0] / dbu_per_micron, nums[1] / dbu_per_micron),
                );
            }
            _ => {
                // Tolerate unknown statements outside COMPONENTS (NETS,
                // PINS, ... may follow in real DEF files).
                if in_components {
                    return Err(NetlistError::Parse {
                        line: line_no,
                        col: crate::col_in(raw, line),
                        message: format!("unrecognized component line `{line}`"),
                    });
                }
            }
        }
    }
    if die_side <= 0.0 {
        return Err(NetlistError::Parse {
            line: 0,
            col: 0,
            message: "missing DIEAREA".into(),
        });
    }
    Ok(DefDesign {
        name,
        die_side: die_side / dbu_per_micron,
        components,
    })
}

/// Serializes a circuit + placement as DEF-lite (1000 DBU per micron).
pub fn write(circuit: &Circuit, placement: &Placement) -> String {
    let mut out = String::new();
    // Writing into a `String` cannot fail.
    let _ = write_to(&mut out, circuit, placement);
    out
}

/// Streams the DEF-lite text of [`write()`] into `out`, piece by piece,
/// without building it as one string.
///
/// # Errors
///
/// Whatever `out` returns.
pub fn write_to<W: fmt::Write>(
    out: &mut W,
    circuit: &Circuit,
    placement: &Placement,
) -> fmt::Result {
    const DBU: f64 = 1000.0;
    out.write_str("VERSION 5.6 ;\n")?;
    writeln!(out, "DESIGN {} ;", circuit.name())?;
    out.write_str("UNITS DISTANCE MICRONS ")?;
    write_coord(out, DBU)?;
    out.write_str(" ;\nDIEAREA ( 0 0 ) ( ")?;
    let side = (placement.die_side() * DBU).round();
    write_coord(out, side)?;
    out.write_char(' ')?;
    write_coord(out, side)?;
    out.write_str(" ) ;\n")?;
    writeln!(out, "COMPONENTS {} ;", circuit.gate_count())?;
    for (g, id) in circuit.gates().iter().zip(circuit.gate_ids()) {
        let (x, y) = placement.position(id);
        out.write_str("- ")?;
        out.write_str(&g.name)?;
        write!(out, " {} + PLACED ( ", g.kind)?;
        write_coord(out, (x * DBU).round())?;
        out.write_char(' ')?;
        write_coord(out, (y * DBU).round())?;
        out.write_str(" ) N ;\n")?;
    }
    out.write_str("END COMPONENTS\nEND DESIGN\n")
}

/// Writes `v` exactly as `{}` formats it. A whole number below 2^53 in
/// magnitude, which is what a rounded coordinate is, takes the integer
/// printer: `{}` prints such a value as its integer digits, since every
/// shorter decimal names another `f64`. Anything else (a fraction, −0,
/// a non-finite value, a magnitude where `{}` may round the digits)
/// takes `{}` itself.
fn write_coord<W: fmt::Write>(out: &mut W, v: f64) -> fmt::Result {
    const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    if v.fract() != 0.0 || v.abs() >= EXACT || (v == 0.0 && v.is_sign_negative()) {
        return write!(out, "{v}");
    }
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut n = v.abs() as u64;
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if v < 0.0 {
        out.write_char('-')?;
    }
    // The buffer holds ASCII digits only.
    out.write_str(std::str::from_utf8(&digits[at..]).unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::PlacementStyle;
    use statim_process::GateKind;

    fn tiny() -> Result<Circuit> {
        let mut c = Circuit::new("tiny");
        let a = c.add_input("a")?;
        let b = c.add_input("b")?;
        let g = c.add_gate("u1", GateKind::Nand(2), &[a, b])?;
        let h = c.add_gate("u2", GateKind::Inv, &[g])?;
        c.mark_output("z", h)?;
        Ok(c)
    }

    /// The coordinate printer writes what `{}` writes, for any `f64`.
    #[test]
    fn coordinates_print_as_display_does() {
        let printed = |v: f64| {
            let mut s = String::new();
            write_coord(&mut s, v).expect("a String takes any text");
            s
        };
        let two53 = 9_007_199_254_740_992.0f64;
        let special = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            5000.0,
            -130_000.0,
            0.5,
            -2.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            -f64::from_bits(1),
            two53 - 1.0,
            -(two53 - 1.0),
            two53,
            two53 + 2.0,
            -(two53 * 3.0),
            1e20,
            f64::MAX,
            f64::MIN,
            u64::MAX as f64,
            i64::MIN as f64,
        ];
        for v in special {
            assert_eq!(printed(v), format!("{v}"), "bits {:#x}", v.to_bits());
        }
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0x5eed);
        for _ in 0..20_000 {
            let bits: u64 = rand::Rng::gen(&mut rng);
            let v = f64::from_bits(bits);
            assert_eq!(printed(v), format!("{v}"), "bits {bits:#x}");
            // Whole numbers of every magnitude, as rounded coordinates are.
            let whole = v.round();
            assert_eq!(printed(whole), format!("{whole}"));
            let scaled = (rand::Rng::gen::<f64>(&mut rng) * 2e16 - 1e16).round();
            assert_eq!(printed(scaled), format!("{scaled}"));
        }
    }

    #[test]
    fn round_trip_preserves_positions() -> Result<()> {
        let c = tiny()?;
        let p = Placement::generate(&c, PlacementStyle::Levelized);
        let text = write(&c, &p);
        let def = parse(&text)?;
        assert_eq!(def.name, "tiny");
        assert_eq!(def.components.len(), 2);
        let p2 = def.placement_for(&c)?;
        for id in c.gate_ids() {
            let (x1, y1) = p.position(id);
            let (x2, y2) = p2.position(id);
            assert!((x1 - x2).abs() < 0.01, "x {x1} vs {x2}");
            assert!((y1 - y2).abs() < 0.01);
        }
        assert!((p.die_side() - p2.die_side()).abs() < 0.01);
        Ok(())
    }

    #[test]
    fn parse_handles_dbu_conversion() -> Result<()> {
        let text = "\
DESIGN t ;
UNITS DISTANCE MICRONS 2000 ;
DIEAREA ( 0 0 ) ( 200000 200000 ) ;
COMPONENTS 1 ;
- u1 NAND2 + PLACED ( 100000 50000 ) N ;
END COMPONENTS
END DESIGN
";
        let def = parse(text)?;
        assert!((def.die_side - 100.0).abs() < 1e-9);
        assert_eq!(def.components["u1"], (50.0, 25.0));
        Ok(())
    }

    #[test]
    fn missing_diearea_rejected() {
        assert!(matches!(
            parse("DESIGN t ;\n"),
            Err(NetlistError::Parse { .. })
        ));
    }

    #[test]
    fn inverted_or_empty_diearea_rejected_at_its_line() {
        for area in [
            "( 1000 1000 ) ( 0 0 )",
            "( 0 0 ) ( 0 0 )",
            "( 0 0 ) ( 1000 0 )",
        ] {
            let text = format!("DESIGN t ;\nDIEAREA {area} ;\nCOMPONENTS 0 ;\nEND COMPONENTS\n");
            match parse(&text) {
                Err(NetlistError::Parse { line, col, message }) => {
                    assert_eq!((line, col), (2, 1), "{area}");
                    assert!(message.contains("DIEAREA extent"), "{area}: {message}");
                }
                other => panic!("{area}: {other:?}"),
            }
        }
    }

    #[test]
    fn bad_component_line_rejected() {
        let text = "\
DESIGN t ;
DIEAREA ( 0 0 ) ( 1000 1000 ) ;
COMPONENTS 1 ;
- u1 NAND2 + UNPLACED ;
END COMPONENTS
";
        assert!(parse(text).is_err());
    }

    #[test]
    fn placement_for_missing_gate_errors() -> Result<()> {
        let c = tiny()?;
        let text = "\
DESIGN tiny ;
DIEAREA ( 0 0 ) ( 10000 10000 ) ;
COMPONENTS 1 ;
- u1 NAND2 + PLACED ( 100 100 ) N ;
END COMPONENTS
";
        let def = parse(text)?;
        assert!(matches!(
            def.placement_for(&c),
            Err(NetlistError::UndefinedName { .. })
        ));
        Ok(())
    }

    #[test]
    fn unknown_sections_tolerated() {
        let text = "\
VERSION 5.6 ;
DESIGN t ;
DIEAREA ( 0 0 ) ( 1000 1000 ) ;
COMPONENTS 0 ;
END COMPONENTS
NETS 3 ;
END NETS
END DESIGN
";
        assert!(parse(text).is_ok());
    }
}
