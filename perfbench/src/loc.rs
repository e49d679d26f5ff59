//! Non-test lines of code per workspace crate.
//!
//! Counts the `.rs` files under `crates/<crate>/src`, skipping blank
//! lines, comment-only lines and every item marked `#[cfg(test)]`
//! (found by brace depth). `tests/`, `benches/` and `examples/` are not
//! under `src` and so are not counted.

use std::io;
use std::path::Path;

/// Non-test lines of one source file's text.
pub fn count_source(text: &str) -> u64 {
    let mut count = 0;
    let mut skipping = false;
    let mut depth: i64 = 0;
    let mut opened = false;
    for line in text.lines() {
        let t = line.trim();
        if skipping {
            depth += t.matches('{').count() as i64 - t.matches('}').count() as i64;
            opened |= t.contains('{');
            // A braced item ends when its depth returns to zero; a
            // braceless one (`mod tests;`, `use …;`) at its semicolon.
            if (opened && depth <= 0) || (!opened && t.ends_with(';')) {
                skipping = false;
            }
            continue;
        }
        if t.starts_with("#[cfg(test)]") {
            skipping = true;
            depth = 0;
            opened = false;
            continue;
        }
        if !t.is_empty() && !t.starts_with("//") {
            count += 1;
        }
    }
    count
}

/// Non-test lines of every `.rs` file below `dir`.
pub fn count_dir(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.path());
    for e in entries {
        let path = e.path();
        if path.is_dir() {
            total += count_dir(&path)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            total += count_source(&std::fs::read_to_string(&path)?);
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_items_comments_and_blanks_are_skipped() {
        let src = "//! doc\nuse a;\n\nfn f() {\n    // note\n    g();\n}\n\
                   #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n    }\n}\nfn h() {}\n\
                   #[cfg(test)]\nuse b;\nconst X: u8 = 1;\n";
        // use a; fn f() {; g(); }; fn h() {}; const X
        assert_eq!(count_source(src), 6);
    }
}
