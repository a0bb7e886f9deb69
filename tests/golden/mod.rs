//! The golden files' shared reader: `name fnv1a64-hex` lines, one per case, in
//! the order the suite computes them.

/// 64-bit FNV-1a (hand-rolled: `DefaultHasher`'s output is not stable across
/// Rust releases, and the golden files must be).
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Hashes each `(name, text)` case and holds the resulting line to the same
/// line of `golden`. A failure prints every computed line that differs; if
/// the change in outcome is intended, paste them over the stale ones.
pub fn assert_matches(file: &str, golden: &str, cases: impl IntoIterator<Item = (String, String)>) {
    let golden: Vec<&str> = golden.lines().collect();
    let mut computed = 0;
    let mut stale = Vec::new();
    for (i, (name, text)) in cases.into_iter().enumerate() {
        let line = format!("{name} {:016x}", fnv1a64(text.as_bytes()));
        if golden.get(i).copied() != Some(line.as_str()) {
            stale.push(format!("line {}; computed: {line}", i + 1));
        }
        computed = i + 1;
    }
    assert!(stale.is_empty(), "{file}:\n{}", stale.join("\n"));
    assert_eq!(golden.len(), computed, "{file} has extra lines");
}
