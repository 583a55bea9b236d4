//! The `arrivals` snapshot section: the jobs a paused run still owes
//! before its horizon, sorted by `(arrival, id)`.
//!
//! Version 5 writes them as columns. After the job count come ten
//! columns, each prefixed by its byte length, so the decoder reads all
//! of them side by side in one pass over the jobs:
//!
//! ```text
//! count                      uvarint
//! { column length uvarint · column bytes }  × 10, in this order:
//!   arrival                  uvarint µs since the previous job's (the first since 0)
//!   id                       zigzag varint, change from the previous job's id
//!   flow                     one tag byte per job
//!   cores                    uvarint per job
//!   input_bytes              uvarint per job
//!   output_bytes             uvarint per job
//!   org                      uvarint per job
//!   deadline dictionary      uvarint size, then each distinct deadline
//!                            (Option tag byte · i64 µs), in first-use order
//!   deadline                 uvarint dictionary index per job
//!   work_gops                raw f64 bits per job (restore stays bit-exact)
//! ```
//!
//! Sorted arrivals make the time deltas small, ids mostly count up by
//! one within a stream, and an edge stream has a single deadline, so a
//! job costs about a third of the 62-byte row version 4 wrote (a `u64`
//! count, then each job's fixed-width fields).

use simcore::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use simcore::time::{SimDuration, SimTime};
use std::collections::HashMap;
use workloads::{Flow, Job, JobId};

/// Write `jobs`, sorted by `(arrival, id)` with no arrival before 0, as
/// the version-5 section.
pub(crate) fn encode(jobs: &[Job], w: &mut SnapshotWriter) {
    let mut columns: [SnapshotWriter; 10] = Default::default();
    let [arrival, id, flow, cores, input, output, org, dict, deadline, work] = &mut columns;
    let mut dictionary: Vec<Option<SimDuration>> = Vec::new();
    let mut index = HashMap::new();
    let (mut last_t, mut last_id) = (0i64, 0u64);
    for j in jobs {
        let t = j.arrival.as_micros();
        debug_assert!(t >= last_t, "arrivals must be sorted and non-negative");
        arrival.put_uvarint((t - last_t) as u64);
        id.put_ivarint(j.id.0.wrapping_sub(last_id) as i64);
        (last_t, last_id) = (t, j.id.0);
        j.flow.encode(flow);
        cores.put_uvarint(j.cores as u64);
        input.put_uvarint(j.input_bytes as u64);
        output.put_uvarint(j.output_bytes as u64);
        org.put_uvarint(j.org.into());
        let ix = *index.entry(j.deadline).or_insert_with(|| {
            dictionary.push(j.deadline);
            dictionary.len() - 1
        });
        deadline.put_uvarint(ix as u64);
        work.put_f64(j.work_gops);
    }
    dict.put_uvarint(dictionary.len() as u64);
    dictionary.iter().for_each(|d| d.encode(dict));
    w.put_uvarint(jobs.len() as u64);
    for c in columns {
        let bytes = c.into_bytes();
        w.put_uvarint(bytes.len() as u64);
        w.put_bytes(&bytes);
    }
}

/// Read a version-5 section, handing each job to `check` as it is
/// decoded (whether the jobs are valid, sorted and inside the run is
/// the caller's to say), so a restore walks the jobs once.
pub(crate) fn decode<'a>(
    r: &mut SnapshotReader<'a>,
    mut check: impl FnMut(&Job) -> Result<(), SnapshotError>,
) -> Result<Vec<Job>, SnapshotError> {
    let corrupt = |what: &str| SnapshotError::Corrupt(format!("arrivals: {what}"));
    let n = r.take_uvarint()?;
    // Every job carries at least its eight bytes of work.
    if n > (r.remaining() / 8) as u64 {
        return Err(corrupt("job count exceeds the section"));
    }
    let n = n as usize;
    let mut column = || -> Result<SnapshotReader<'a>, SnapshotError> {
        let len = usize::try_from(r.take_uvarint()?).map_err(|_| SnapshotError::Truncated)?;
        Ok(SnapshotReader::new(r.take_bytes(len)?))
    };
    let mut arrival = column()?;
    let mut id = column()?;
    let mut flow = column()?;
    let mut cores = column()?;
    let mut input = column()?;
    let mut output = column()?;
    let mut org = column()?;
    let mut dict = column()?;
    let mut deadline = column()?;
    let mut work = column()?;
    let k = dict.take_uvarint()?;
    if k > n as u64 {
        return Err(corrupt("more deadlines than jobs"));
    }
    let dictionary = (0..k)
        .map(|_| Option::<SimDuration>::decode(&mut dict))
        .collect::<Result<Vec<_>, _>>()?;
    let usize_of = |v: u64| usize::try_from(v).map_err(|_| corrupt("field overflows usize"));
    let mut jobs = Vec::with_capacity(n);
    let (mut t, mut last_id) = (0i64, 0u64);
    for _ in 0..n {
        t = i64::try_from(arrival.take_uvarint()?)
            .ok()
            .and_then(|d| t.checked_add(d))
            .ok_or_else(|| corrupt("arrival time overflows"))?;
        last_id = last_id.wrapping_add(id.take_ivarint()? as u64);
        let ix = deadline.take_uvarint()?;
        let job = Job {
            id: JobId(last_id),
            flow: Flow::decode(&mut flow)?,
            arrival: SimTime::from_micros(t),
            work_gops: work.take_f64()?,
            cores: usize_of(cores.take_uvarint()?)?,
            deadline: *usize::try_from(ix)
                .ok()
                .and_then(|i| dictionary.get(i))
                .ok_or_else(|| corrupt("deadline index outside the dictionary"))?,
            input_bytes: usize_of(input.take_uvarint()?)?,
            output_bytes: usize_of(output.take_uvarint()?)?,
            org: u32::try_from(org.take_uvarint()?).map_err(|_| corrupt("org overflows u32"))?,
        };
        check(&job)?;
        jobs.push(job);
    }
    for c in [
        arrival, id, flow, cores, input, output, org, dict, deadline, work,
    ] {
        c.expect_end()?;
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, flow: Flow, arrival_us: i64, deadline_ms: Option<i64>) -> Job {
        Job {
            id: JobId(id),
            flow,
            arrival: SimTime::from_micros(arrival_us),
            work_gops: 0.1 + id as f64 / 7.0,
            cores: 1 + (id % 16) as usize,
            deadline: deadline_ms.map(SimDuration::from_millis),
            input_bytes: 2_000 + (id % 1_000) as usize,
            output_bytes: 40_000,
            org: (id % 3) as u32,
        }
    }

    fn sample() -> Vec<Job> {
        vec![
            job(1 << 32, Flow::Dcc, 0, None),
            job(7, Flow::EdgeIndirect, 0, Some(300)),
            job(8, Flow::EdgeIndirect, 1_250, Some(300)),
            job(2 << 32, Flow::Dcc, 1_250, None),
            job(9, Flow::EdgeDirect, 90_000_000_000, Some(50)),
            job(u64::MAX, Flow::Dcc, i64::MAX, Some(i64::MAX / 1_000)),
        ]
    }

    fn bytes_of(jobs: &[Job]) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        encode(jobs, &mut w);
        w.into_bytes()
    }

    fn roundtrip(jobs: &[Job]) -> Vec<Job> {
        let bytes = bytes_of(jobs);
        let mut r = SnapshotReader::new(&bytes);
        let back = decode(&mut r, |_| Ok(())).expect("own section decodes");
        r.expect_end().expect("fully consumed");
        back
    }

    #[test]
    fn columns_roundtrip_every_field_bit_exactly() {
        let jobs = sample();
        assert_eq!(roundtrip(&jobs), jobs);
        for j in roundtrip(&jobs).iter().zip(&jobs) {
            assert_eq!(j.0.work_gops.to_bits(), j.1.work_gops.to_bits());
        }
        assert!(roundtrip(&[]).is_empty());
    }

    #[test]
    fn an_edge_stream_costs_a_third_of_a_row() {
        // One request every 20 ms with a 300 ms deadline: 62 bytes a
        // job as rows, about a third of that as columns.
        let jobs: Vec<Job> = (0..1_000)
            .map(|i| job(i, Flow::EdgeIndirect, i as i64 * 20_000, Some(300)))
            .collect();
        let per_job = bytes_of(&jobs).len() as f64 / jobs.len() as f64;
        assert!(per_job < 62.0 / 2.5, "{per_job} bytes per job");
    }

    #[test]
    fn every_truncation_and_bad_index_errors() {
        let bytes = bytes_of(&sample());
        for cut in 0..bytes.len() {
            assert!(decode(&mut SnapshotReader::new(&bytes[..cut]), |_| Ok(())).is_err());
        }
        // A deadline index past the one-entry dictionary.
        let mut w = SnapshotWriter::new();
        w.put_uvarint(1);
        for column in [
            &[0u8][..],
            &[0],
            &[0],
            &[1],
            &[0],
            &[0],
            &[0],
            &[1, 0],
            &[5],
        ] {
            w.put_uvarint(column.len() as u64);
            w.put_bytes(column);
        }
        w.put_uvarint(8);
        w.put_f64(1.0);
        assert_eq!(
            decode(&mut SnapshotReader::new(&w.into_bytes()), |_| Ok(())),
            Err(SnapshotError::Corrupt(
                "arrivals: deadline index outside the dictionary".into()
            ))
        );
    }
}
