//! Seeded inputs: synthetic Adult tables rendered to CSV, and the
//! benchmark's own decode of those bytes into the table and lattice the
//! server builds from the same upload.

use std::io::BufReader;
use std::sync::Arc;

use wcbk_anonymize::{DatasetSession, SessionOptions};
use wcbk_core::EngineRegistry;
use wcbk_datagen::adult::{synthetic_adult, AdultConfig};
use wcbk_hierarchy::{GeneralizationLattice, Hierarchy};
use wcbk_table::csv::{write_table, CsvReader};
use wcbk_table::{Attribute, AttributeKind, ChunkedTableBuilder, Schema, Table};

/// Quasi-identifier columns of every registered dataset.
pub const QI: [&str; 4] = ["Age", "Marital-Status", "Race", "Gender"];
/// The sensitive column.
pub const SENSITIVE: &str = "Occupation";
/// Interval widths of the Age hierarchy; with suppression on the other
/// three columns the lattice has 5 × 2 × 2 × 2 = 40 nodes.
pub const AGE_WIDTHS: [u64; 3] = [5, 10, 20];

/// `POST /tables` target for a `text/csv` upload of a dataset.
pub const UPLOAD_PATH: &str =
    "/tables?sensitive=Occupation&qi=Age,Marital-Status,Race,Gender&hierarchy=Age:5,10,20";

/// SplitMix64: the benchmark's only source of randomness, so a seed fixes
/// every input on every platform.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// One element of `items`, uniformly.
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// The CSV bytes of a seeded synthetic Adult table (header first).
pub fn csv_bytes(rows: usize, seed: u64) -> Vec<u8> {
    let table = synthetic_adult(AdultConfig { n_rows: rows, seed });
    let mut out = Vec::with_capacity(rows * 48);
    write_table(&mut out, &table).expect("writing CSV into memory cannot fail");
    out
}

/// Decodes uploaded CSV bytes into a table with the roles the upload's
/// query string assigns: the public CSV reader feeding the chunked builder,
/// with the trimming the server applies.
pub fn ingest(csv: &[u8]) -> Table {
    let mut reader = CsvReader::new(BufReader::new(csv));
    let header = reader
        .next_record()
        .expect("generated CSV parses")
        .expect("generated CSV has a header");
    let attributes = header
        .iter()
        .map(|name| {
            let name = name.trim();
            let kind = if name == SENSITIVE {
                AttributeKind::Sensitive
            } else if QI.contains(&name) {
                AttributeKind::QuasiIdentifier
            } else {
                AttributeKind::Insensitive
            };
            Attribute::new(name, kind)
        })
        .collect();
    let schema = Schema::new(attributes).expect("generated header has unique names");
    let mut builder = ChunkedTableBuilder::new(schema);
    while let Some(record) = reader.next_record().expect("generated CSV parses") {
        let trimmed: Vec<&str> = record.iter().map(|s| s.trim()).collect();
        builder
            .push_row(&trimmed)
            .expect("generated rows match the header");
    }
    builder.build()
}

/// The generalization lattice the upload's `hierarchy` parameter asks for:
/// Age by interval widths, every other quasi-identifier by suppression.
pub fn lattice(table: &Table) -> GeneralizationLattice {
    let dims = QI
        .iter()
        .map(|&name| {
            let col = table.schema().index_of(name).expect("QI column exists");
            let dict = table.column(col).dictionary();
            let hierarchy = if name == "Age" {
                Hierarchy::intervals(name, dict, &AGE_WIDTHS).expect("Age values are numeric")
            } else {
                Hierarchy::suppression(name, dict)
            };
            (col, hierarchy)
        })
        .collect();
    GeneralizationLattice::new(dims).expect("every hierarchy has levels")
}

/// A session over `table` drawing engines from `engines`, as the server
/// builds one per registration.
pub fn session(table: Table, engines: &Arc<EngineRegistry>) -> DatasetSession {
    let lattice = lattice(&table);
    DatasetSession::with_options(
        table,
        lattice,
        SessionOptions {
            memo_capacity: None,
            engines: Some(Arc::clone(engines)),
            scan_threads: 1,
        },
    )
    .expect("generated tables are non-empty")
}

/// The handle id the server derives for a session: its content
/// fingerprint as 16 hex digits.
pub fn handle_id(session: &DatasetSession) -> String {
    format!("{:016x}", session.fingerprint())
}
