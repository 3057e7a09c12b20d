//! Argument handling shared by the `sympack-prof` and `sympack-tune`
//! command-line tools. The example programs live in ../../examples.

/// Parse `--flag value` from `argv`, removing both tokens when present;
/// [`refuse`] with `usage` when the flag is the last token, with no value.
pub fn take_flag(argv: &mut Vec<String>, flag: &str, usage: &str) -> Option<String> {
    let i = argv.iter().position(|a| a == flag)?;
    if i + 1 >= argv.len() {
        refuse(usage, &format!("{flag} needs a value"));
    }
    let v = argv.remove(i + 1);
    argv.remove(i);
    Some(v)
}

/// Print why the command line was refused, then `usage`, and exit 2 (a
/// runtime failure exits 1).
pub fn refuse(usage: &str, why: &str) -> ! {
    eprintln!("error: {why}\n{usage}");
    std::process::exit(2)
}
