//! `vecmem` — command-line interface to the interleaved-memory bandwidth
//! model and simulator (reproduction of Oed & Lange, 1985).

mod args;
mod commands;
mod flags;
#[cfg(test)]
mod tests;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        eprint!("{}", flags::CLI.usage());
        std::process::exit(2);
    }
    match flags::CLI.run(&argv) {
        Ok(output) => print!("{output}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(e.exit_code());
        }
    }
}
