//! Durable flight-recorder dumps: one JSON line per incident snapshot.
//!
//! The in-memory flight recorder behind
//! [`Telemetry::flight_snapshot`](frame_telemetry::Telemetry::flight_snapshot)
//! keeps the last N per-message span timelines and incidents; this module
//! is its crash-forensics sink. Whenever the runtime observes a new incident
//! (deadline miss, loss burst, admission rejection, promotion) it appends
//! the whole [`FlightSnapshot`] as a single JSONL line, so the file is a
//! time series of ring states that survives the process — `frame-cli
//! trace --dump` reads it back after the fact.
//!
//! JSONL (not one big JSON document) keeps appends atomic-ish and cheap:
//! no rewriting, a torn final line loses only the newest snapshot, and
//! every earlier line stays parseable.

use std::fs::{self, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

use frame_telemetry::FlightSnapshot;

/// File name of the dump inside its directory.
pub const FLIGHT_DUMP_FILE: &str = "flight.jsonl";

/// An append-only JSONL sink for [`FlightSnapshot`]s.
#[derive(Debug, Clone)]
pub struct FlightDump {
    path: PathBuf,
}

impl FlightDump {
    /// Creates the dump directory (if needed) and returns a sink appending
    /// to `<dir>/flight.jsonl`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation errors.
    pub fn create(dir: impl AsRef<Path>) -> std::io::Result<FlightDump> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        Ok(FlightDump {
            path: dir.join(FLIGHT_DUMP_FILE),
        })
    }

    /// The file this sink appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one snapshot as a single JSON line and syncs it to disk —
    /// incidents are rare and the dump exists for post-crash forensics, so
    /// durability beats write latency here.
    ///
    /// # Errors
    ///
    /// Propagates serialization and file I/O errors.
    pub fn append(&self, snapshot: &FlightSnapshot) -> std::io::Result<()> {
        let line = serde_json::to_string(snapshot)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        file.write_all(line.as_bytes())?;
        file.write_all(b"\n")?;
        file.sync_data()
    }

    /// Reads every parseable snapshot back from `path`, oldest first. A
    /// torn or malformed trailing line (interrupted append) is skipped
    /// rather than failing the whole read, mirroring the message log's
    /// torn-write recovery.
    ///
    /// # Errors
    ///
    /// Propagates file I/O errors.
    pub fn read(path: impl AsRef<Path>) -> std::io::Result<Vec<FlightSnapshot>> {
        let file = fs::File::open(path)?;
        let mut out = Vec::new();
        for line in BufReader::new(file).lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            if let Ok(snapshot) = frame_telemetry::flight_from_json(&line) {
                out.push(snapshot);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frame_telemetry::{IncidentKind, Telemetry};
    use frame_types::{Duration, SeqNo, Time, TopicId, TraceCtx};

    /// A registry holding one traced delivery that missed its 40 µs
    /// deadline, so its flight recorder retains one span and one
    /// deadline-miss incident.
    fn sample_recorder() -> Telemetry {
        let recorder = Telemetry::new();
        recorder.set_topic_slo(TopicId(3), Duration::from_micros(40), None);
        let mut trace = TraceCtx::new();
        trace.stamp(frame_types::SpanPoint::ProxyRecv, Time::from_micros(10));
        trace.stamp(frame_types::SpanPoint::Admitted, Time::from_micros(12));
        trace.stamp(frame_types::SpanPoint::Popped, Time::from_micros(40));
        trace.stamp(frame_types::SpanPoint::Locked, Time::from_micros(41));
        trace.stamp(frame_types::SpanPoint::DeliverSend, Time::from_micros(50));
        recorder.record_delivery(
            TopicId(3),
            SeqNo(7),
            Time::from_micros(5),
            Time::from_micros(55),
            Some(&trace),
        );
        recorder
    }

    #[test]
    fn append_and_read_round_trip() {
        let dir = std::env::temp_dir().join(format!("frame-flight-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let dump = FlightDump::create(&dir).unwrap();
        let recorder = sample_recorder();

        let first = recorder.flight_snapshot();
        assert_eq!(first.spans.len(), 1);
        assert_eq!(
            first.last_incident().map(|i| i.kind),
            Some(IncidentKind::DeadlineMiss)
        );
        dump.append(&first).unwrap();
        recorder.incident(
            IncidentKind::Promotion,
            TopicId(0),
            SeqNo(1),
            Time::from_micros(90),
            "promoted".into(),
        );
        let second = recorder.flight_snapshot();
        dump.append(&second).unwrap();

        let read = FlightDump::read(dump.path()).unwrap();
        assert_eq!(read.len(), 2);
        assert_eq!(read[0], first);
        assert_eq!(read[1], second);
        assert_eq!(
            read[1].last_incident().map(|i| i.kind),
            Some(IncidentKind::Promotion)
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_trailing_line_is_skipped() {
        let dir = std::env::temp_dir().join(format!("frame-flight-torn-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let dump = FlightDump::create(&dir).unwrap();
        let snapshot = sample_recorder().flight_snapshot();
        dump.append(&snapshot).unwrap();
        // Simulate an interrupted append: half a JSON object, no newline.
        let mut file = OpenOptions::new().append(true).open(dump.path()).unwrap();
        file.write_all(b"{\"incident_count\": 3, \"inci").unwrap();
        drop(file);

        let read = FlightDump::read(dump.path()).unwrap();
        assert_eq!(read.len(), 1, "torn tail skipped, intact line kept");
        assert_eq!(read[0], snapshot);
        let _ = fs::remove_dir_all(&dir);
    }
}
