//! Tiny argument-parsing helpers shared by the example CLIs (included
//! via `#[path]`; this directory is not itself an example target).

/// First token that is neither a flag nor the value of a value-taking
/// flag.
pub fn positional<'a>(args: &'a [String], value_flags: &[&str]) -> Option<&'a String> {
    let mut skip = false;
    args.iter().find(|a| {
        if skip {
            skip = false;
            return false;
        }
        if a.starts_with("--") {
            skip = value_flags.contains(&a.as_str());
            return false;
        }
        true
    })
}

/// Rejects any `--flag` that is neither in `known_bool` nor in
/// `known_value` (whose following token is its value and is skipped), so
/// a typo like `--lossles` fails loudly instead of silently selecting
/// the default behaviour.
#[allow(dead_code)] // not every CLI that includes this file calls it
pub fn reject_unknown_flags(
    args: &[String],
    known_bool: &[&str],
    known_value: &[&str],
) -> Result<(), String> {
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        if !a.starts_with("--") {
            continue;
        }
        if known_value.contains(&a.as_str()) {
            rest.next();
        } else if !known_bool.contains(&a.as_str()) {
            return Err(format!("unknown flag {a}"));
        }
    }
    Ok(())
}
