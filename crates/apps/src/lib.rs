//! Argument handling shared by the `sympack-prof` and `sympack-tune`
//! command-line tools. The example programs live in ../../examples.

/// Parse `--flag value` from `argv`, removing both tokens when present.
///
/// # Errors
/// The flag is the last token, with no value after it.
pub fn take_flag(argv: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    match argv.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => {
            if i + 1 >= argv.len() {
                return Err(format!("{flag} needs a value"));
            }
            let v = argv.remove(i + 1);
            argv.remove(i);
            Ok(Some(v))
        }
    }
}
