//! Prints the canonical trace schema rendered from the event table in
//! `isasgd_obs::event`. After an intended vocabulary change:
//!
//! ```text
//! cargo run -p isasgd-obs --example trace_schema > TRACE_SCHEMA.json
//! ```

fn main() {
    print!("{}", isasgd_obs::Event::schema_json());
}
