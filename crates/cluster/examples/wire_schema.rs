//! Prints the canonical wire-protocol schema rendered from the frame
//! table in `isasgd_cluster::wire`. After an intended protocol change:
//!
//! ```text
//! cargo run -p isasgd-cluster --example wire_schema > WIRE_SCHEMA.json
//! ```

fn main() {
    print!("{}", isasgd_cluster::wire::schema_json());
}
