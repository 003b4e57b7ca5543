//! Snapshot I/O: checkpoint and exact restart.
//!
//! GOTHIC writes particle snapshots for analysis and restart; this module
//! provides the equivalent for the Rust pipeline. A snapshot carries the
//! whole integrator state — particles, the block time-step hierarchy, the
//! tree topology and the rebuild auto-tuner — so [`Snapshot::resume`]
//! continues a run exactly where it stopped: `run(a + b)` and `run(a)`,
//! save, load, resume, `run(b)` end in byte-identical states.
//!
//! The format is a simple little-endian binary layout (magic + version +
//! counts + arrays) so snapshots are portable, diffable in size, and need
//! no serialization framework. State that [`crate::Gothic::step`]
//! rewrites before it reads it is not stored: the node summaries
//! (`com`/`mass`/`bmax`, refreshed by calcNode every step), the predicted
//! positions (predict overwrites every entry) and the tree's build events
//! (read only right after a rebuild). The per-particle committed ticks
//! are stored, as version 2 lays them out, but the run does not keep
//! them: they are written derived from the clock and each particle's
//! level, and read back only to be checked against that derivation.
//!
//! Writing copies no state. [`Snapshot::capture`] returns a [`Capture`],
//! a view that borrows the running simulation's arrays, and its
//! [`Capture::write_to`] is the one serialiser: an owned [`Snapshot`]
//! (the read side, from [`Snapshot::read_from`] or [`Snapshot::load`])
//! writes through a view of itself. Equality streams one side's bytes
//! against the other's serialised bytes, so comparing holds one
//! serialised copy, not two.

use crate::pipeline::RebuildTuner;
use crate::{Gothic, RunConfig, RunSummary};
use gpu_model::MakeTreeEvents;
use nbody::blockstep::BlockSteps;
use nbody::{Aabb, ParticleSet, Vec3};
use octree::morton::MAX_DEPTH;
use octree::Octree;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"GOTHICSN";
/// Version 2 added the integrator state to version 1's particles and
/// clock; version 1 files cannot be resumed exactly and are rejected.
const VERSION: u32 = 2;

/// Records moved per `read_exact` call.
const BATCH: usize = 1 << 14;
/// Bytes encoded per `write_all` call, staged on the stack so that
/// writing allocates nothing.
const WRITE_BYTES: usize = 1 << 16;
/// Most records an array reserves before its bytes arrive, so a corrupt
/// count fails with a truncation error instead of a huge allocation.
const MAX_RESERVE: usize = 1 << 20;

/// A simulation checkpoint read back from bytes: particles, clock and
/// integrator state, owned so that [`Snapshot::resume`] can move them
/// into a new run.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Simulation time (simulation units).
    pub time: f64,
    /// Completed block steps.
    pub step: u64,
    /// Particle state, in the Morton order of the latest tree rebuild;
    /// resuming needs its count and order unchanged.
    pub particles: ParticleSet,
    /// Block time-step hierarchy: global tick and per-particle level (the
    /// committed ticks follow from them).
    blocks: BlockSteps,
    /// Leaf capacity the tree was built with.
    leaf_cap: u32,
    /// Tree topology; the node summaries are empty.
    tree: Octree,
    tuner: RebuildTuner,
    steps_since_rebuild: u32,
}

/// The state a snapshot holds, borrowed from a running simulation (see
/// [`Snapshot::capture`]) or from an owned [`Snapshot`]. Writing it
/// reads the arrays in place; of the tree only the topology is written.
#[derive(Debug)]
pub struct Capture<'a> {
    time: f64,
    step: u64,
    leaf_cap: u32,
    steps_since_rebuild: u32,
    particles: &'a ParticleSet,
    blocks: &'a BlockSteps,
    tree: &'a Octree,
    tuner: &'a RebuildTuner,
}

/// Two snapshots are equal when they serialise to the same bytes: the
/// format defines the state a snapshot holds.
impl PartialEq<Capture<'_>> for Snapshot {
    fn eq(&self, other: &Capture<'_>) -> bool {
        // Sized by a counting pass first: a `Vec` grown by doubling can
        // hold twice the bytes it is given.
        let mut len = Counted(0);
        other.write_to(&mut len).expect("counting cannot fail");
        let mut bytes = Vec::with_capacity(len.0);
        other
            .write_to(&mut bytes)
            .expect("writing to a Vec cannot fail");
        let mut rest = Remaining(&bytes);
        self.write_to(&mut rest).is_ok() && rest.0.is_empty()
    }
}

impl PartialEq for Snapshot {
    fn eq(&self, other: &Snapshot) -> bool {
        *self == other.view()
    }
}

/// A writer that checks each chunk written to it against the front of
/// the bytes still expected, and fails at the first chunk that differs
/// or overruns them.
struct Remaining<'a>(&'a [u8]);

impl Write for Remaining<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.0.strip_prefix(buf) {
            Some(rest) => {
                self.0 = rest;
                Ok(buf.len())
            }
            None => Err(io::ErrorKind::InvalidData.into()),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A writer that only counts the bytes written to it.
struct Counted(usize);

impl Write for Counted {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0 += buf.len();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Capture<'_> {
    /// Serialise to any writer.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let (ps, b, t) = (self.particles, self.blocks, self.tree);
        w.write_all(MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&self.time.to_le_bytes())?;
        w.write_all(&self.step.to_le_bytes())?;
        w.write_all(&(ps.len() as u64).to_le_bytes())?;
        write_vec(w, &ps.pos, vec3_bytes)?;
        write_vec(w, &ps.vel, vec3_bytes)?;
        write_vec(w, &ps.mass, |x| x.to_le_bytes())?;
        write_vec(w, &ps.acc, vec3_bytes)?;
        write_vec(w, &ps.pot, |x| x.to_le_bytes())?;
        write_vec(w, &ps.acc_old, |x| x.to_le_bytes())?;
        write_vec(w, &ps.id, |x| x.to_le_bytes())?;
        // Block time steps.
        w.write_all(&b.dt_max.to_le_bytes())?;
        w.write_all(&b.max_depth.to_le_bytes())?;
        w.write_all(&b.tick().to_le_bytes())?;
        write_vec(w, b.levels(), |&k| [k])?;
        write_vec(w, (0..b.len()).map(|i| b.ptick(i)), u64::to_le_bytes)?;
        // Tree topology.
        w.write_all(&self.leaf_cap.to_le_bytes())?;
        w.write_all(&vec3_bytes(&t.cube.min))?;
        w.write_all(&vec3_bytes(&t.cube.max))?;
        write_vec(w, &t.keys, |x| x.to_le_bytes())?;
        w.write_all(&(t.n_nodes() as u64).to_le_bytes())?;
        write_vec(w, &t.level, |&l| [l])?;
        write_vec(w, &t.pstart, |x| x.to_le_bytes())?;
        write_vec(w, &t.pcount, |x| x.to_le_bytes())?;
        write_vec(w, &t.child_start, |x| x.to_le_bytes())?;
        write_vec(w, &t.child_count, |&c| [c])?;
        w.write_all(&(t.level_start.len() as u64).to_le_bytes())?;
        write_vec(w, &t.level_start, |x| x.to_le_bytes())?;
        // Rebuild auto-tuner.
        w.write_all(&self.tuner.excess.to_le_bytes())?;
        w.write_all(&self.tuner.threshold.to_le_bytes())?;
        w.write_all(&self.steps_since_rebuild.to_le_bytes())?;
        w.write_all(&(self.tuner.fresh_leaf_bmax.len() as u64).to_le_bytes())?;
        write_vec(w, &self.tuner.fresh_leaf_bmax, |x| x.to_le_bytes())
    }

    /// Write to a file path, crash-safely.
    ///
    /// The snapshot is staged to a sibling `<path>.tmp`, flushed and
    /// fsynced, then renamed over the target. A crash (or full disk)
    /// mid-write therefore never leaves a truncated snapshot at `path`:
    /// readers see either the old complete file or the new complete
    /// file, and a stale `.tmp` from an interrupted run is simply
    /// overwritten by the next save.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let result = (|| {
            let mut w = io::BufWriter::new(std::fs::File::create(&tmp)?);
            self.write_to(&mut w)?;
            w.flush()?;
            let f = w.into_inner().map_err(|e| e.into_error())?;
            f.sync_all()?;
            std::fs::rename(&tmp, path)
        })();
        if result.is_err() {
            std::fs::remove_file(&tmp).ok();
        }
        result
    }
}

impl Snapshot {
    /// Capture the current state of a simulation as a view that borrows
    /// it; nothing is copied until the view is written.
    pub fn capture(sim: &Gothic) -> Capture<'_> {
        Capture {
            time: sim.time(),
            step: sim.step_count,
            leaf_cap: sim.cfg.leaf_cap,
            steps_since_rebuild: sim.steps_since_rebuild,
            particles: &sim.ps,
            blocks: &sim.blocks,
            tree: &sim.tree,
            tuner: &sim.tuner,
        }
    }

    fn view(&self) -> Capture<'_> {
        Capture {
            time: self.time,
            step: self.step,
            leaf_cap: self.leaf_cap,
            steps_since_rebuild: self.steps_since_rebuild,
            particles: &self.particles,
            blocks: &self.blocks,
            tree: &self.tree,
            tuner: &self.tuner,
        }
    }

    /// Serialise to any writer; see [`Capture::write_to`].
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        self.view().write_to(w)
    }

    /// Deserialise from any reader, validating magic, version, every
    /// length and the invariants of the particles, the block hierarchy
    /// and the tree. Each stored committed tick must be the one the
    /// stored clock and level give; it is checked as it streams past and
    /// not kept.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Snapshot> {
        let magic: [u8; 8] = read_array(r)?;
        if &magic != MAGIC {
            return Err(invalid("not a GOTHIC snapshot"));
        }
        let version = u32::from_le_bytes(read_array(r)?);
        if version != VERSION {
            return Err(invalid(format!(
                "unsupported snapshot version {version}: this build reads version \
                 {VERSION} only, which carries the integrator state exact restart needs"
            )));
        }
        let time = f64::from_le_bytes(read_array(r)?);
        let step = u64::from_le_bytes(read_array(r)?);
        let n = read_len(r, 1 << 33, "particle count")?;
        if n == 0 {
            return Err(invalid("snapshot holds no particles"));
        }
        let particles = ParticleSet {
            pos: read_vec(r, n, vec3_from)?,
            vel: read_vec(r, n, vec3_from)?,
            mass: read_vec(r, n, f32::from_le_bytes)?,
            acc: read_vec(r, n, vec3_from)?,
            pot: read_vec(r, n, f32::from_le_bytes)?,
            acc_old: read_vec(r, n, f32::from_le_bytes)?,
            id: read_vec(r, n, u32::from_le_bytes)?,
        };
        particles.check_invariants().map_err(invalid)?;

        let dt_max = f32::from_le_bytes(read_array(r)?);
        let max_depth = u32::from_le_bytes(read_array(r)?);
        if !(dt_max.is_finite() && dt_max > 0.0) || max_depth >= 63 {
            return Err(invalid(format!(
                "invalid block hierarchy: dt_max {dt_max}, max_depth {max_depth}"
            )));
        }
        let tick = u64::from_le_bytes(read_array(r)?);
        let level = read_vec(r, n, |[k]: [u8; 1]| k)?;
        let blocks = BlockSteps::at_tick(tick, dt_max, max_depth, level);
        // The committed ticks follow from `tick` and the levels; a stored
        // one that differs is refused, not kept. Every particle is checked
        // as `BlockSteps::check_invariants` checks it.
        let mut i = 0;
        read_batches::<_, 8>(r, n, |bytes| {
            for p in records(bytes).map(u64::from_le_bytes) {
                blocks.check_committed(i, p).map_err(invalid)?;
                i += 1;
            }
            Ok(())
        })?;
        if blocks.time() != time {
            return Err(invalid(format!(
                "time {time} disagrees with tick {}",
                blocks.tick()
            )));
        }

        let leaf_cap = u32::from_le_bytes(read_array(r)?);
        let cube = Aabb {
            min: vec3_from(read_array(r)?),
            max: vec3_from(read_array(r)?),
        };
        let keys = read_vec(r, n, u64::from_le_bytes)?;
        // Every tree level holds at most one node per particle.
        let nodes = read_len(r, n * (MAX_DEPTH as usize + 1), "tree node count")?;
        let level = read_vec(r, nodes, |[l]: [u8; 1]| l)?;
        let pstart = read_vec(r, nodes, u32::from_le_bytes)?;
        let pcount = read_vec(r, nodes, u32::from_le_bytes)?;
        let child_start = read_vec(r, nodes, u32::from_le_bytes)?;
        let child_count = read_vec(r, nodes, |[c]: [u8; 1]| c)?;
        let levels = read_len(r, MAX_DEPTH as usize + 2, "tree level count")?;
        let tree = Octree {
            cube,
            keys,
            level,
            pstart,
            pcount,
            child_start,
            child_count,
            com: Vec::new(),
            mass: Vec::new(),
            bmax: Vec::new(),
            level_start: read_vec(r, levels, u32::from_le_bytes)?,
            events: MakeTreeEvents::default(),
            radix_passes: 0,
        };
        tree.check_invariants(leaf_cap).map_err(invalid)?;

        let excess = f64::from_le_bytes(read_array(r)?);
        let threshold = f64::from_le_bytes(read_array(r)?);
        let steps_since_rebuild = u32::from_le_bytes(read_array(r)?);
        let fresh = read_len(r, nodes, "tuner leaf count")?;
        let leaves = (0..nodes).filter(|&v| tree.is_leaf(v)).count();
        if fresh != 0 && fresh != leaves {
            return Err(invalid(format!(
                "tuner holds {fresh} leaf radii for a tree of {leaves} leaves"
            )));
        }
        let tuner = RebuildTuner {
            fresh_leaf_bmax: read_vec(r, fresh, f64::from_le_bytes)?,
            excess,
            threshold,
        };
        Ok(Snapshot {
            time,
            step,
            particles,
            blocks,
            leaf_cap,
            tree,
            tuner,
            steps_since_rebuild,
        })
    }

    /// Write to a file path, crash-safely; see [`Capture::save`].
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        self.view().save(path)
    }

    /// Read from a file path.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Snapshot> {
        let mut f = io::BufReader::new(std::fs::File::open(path)?);
        Snapshot::read_from(&mut f)
    }

    /// Resume the simulation this snapshot was captured from. The
    /// continued run is bit-identical to one that never stopped.
    ///
    /// # Panics
    ///
    /// If `cfg` disagrees with the snapshot on a field the stored state
    /// depends on; [`Snapshot::try_resume`] reports that as an error.
    pub fn resume(self, cfg: RunConfig) -> Gothic {
        self.try_resume(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Resume the simulation this snapshot was captured from, or fail
    /// with `InvalidInput` naming the first of `dt_max`, `max_depth` and
    /// `leaf_cap` on which `cfg` disagrees with the stored state. No tree
    /// is built and no force is evaluated: the state is moved as stored.
    pub fn try_resume(self, cfg: RunConfig) -> io::Result<Gothic> {
        if self.particles.len() != self.blocks.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "snapshot particles were resized from {} to {}",
                    self.blocks.len(),
                    self.particles.len()
                ),
            ));
        }
        for (field, stored, given) in [
            (
                "dt_max",
                self.blocks.dt_max.to_string(),
                cfg.dt_max.to_string(),
            ),
            (
                "max_depth",
                self.blocks.max_depth.to_string(),
                cfg.max_depth.to_string(),
            ),
            (
                "leaf_cap",
                self.leaf_cap.to_string(),
                cfg.leaf_cap.to_string(),
            ),
        ] {
            if stored != given {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "snapshot was written with {field} = {stored}, but the run \
                         config has {field} = {given}"
                    ),
                ));
            }
        }
        Ok(Gothic {
            cfg,
            pred_pos: vec![Vec3::ZERO; self.particles.len()],
            ps: self.particles,
            blocks: self.blocks,
            tree: self.tree,
            steps_since_rebuild: self.steps_since_rebuild,
            tuner: self.tuner,
            step_count: self.step,
            summary: RunSummary::default(),
        })
    }
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn vec3_bytes(v: &Vec3) -> [u8; 12] {
    let mut b = [0u8; 12];
    b[..4].copy_from_slice(&v.x.to_le_bytes());
    b[4..8].copy_from_slice(&v.y.to_le_bytes());
    b[8..].copy_from_slice(&v.z.to_le_bytes());
    b
}

fn vec3_from(b: [u8; 12]) -> Vec3 {
    let f = |i: usize| f32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
    Vec3::new(f(0), f(4), f(8))
}

/// Write the items of `v` as fixed-size little-endian records, in
/// batches.
fn write_vec<W: Write, T, const B: usize>(
    w: &mut W,
    v: impl IntoIterator<Item = T>,
    encode: impl Fn(T) -> [u8; B],
) -> io::Result<()> {
    let mut buf = [0u8; WRITE_BYTES];
    let mut v = v.into_iter();
    loop {
        let mut len = 0;
        for (out, x) in buf.chunks_exact_mut(B).zip(v.by_ref()) {
            out.copy_from_slice(&encode(x));
            len += B;
        }
        if len == 0 {
            return Ok(());
        }
        w.write_all(&buf[..len])?;
    }
}

/// Read `n` fixed-size records, handing `f` the bytes of at most
/// [`BATCH`] records at a time.
fn read_batches<R: Read, const B: usize>(
    r: &mut R,
    n: usize,
    mut f: impl FnMut(&[u8]) -> io::Result<()>,
) -> io::Result<()> {
    let mut buf = vec![0u8; B * n.min(BATCH)];
    let mut done = 0;
    while done < n {
        let k = (n - done).min(BATCH);
        r.read_exact(&mut buf[..k * B]).map_err(reject_truncation)?;
        f(&buf[..k * B])?;
        done += k;
    }
    Ok(())
}

/// The `B`-byte records of a batch.
fn records<const B: usize>(bytes: &[u8]) -> impl Iterator<Item = [u8; B]> + '_ {
    bytes
        .chunks_exact(B)
        .map(|c| c.try_into().expect("chunks are B bytes"))
}

/// Read `n` fixed-size records. Memory grows geometrically (never past
/// `n`) as the bytes arrive, so a count the file cannot back costs at
/// most [`MAX_RESERVE`] records before the truncation error.
fn read_vec<R: Read, T, const B: usize>(
    r: &mut R,
    n: usize,
    decode: impl Fn([u8; B]) -> T,
) -> io::Result<Vec<T>> {
    let mut out = Vec::with_capacity(n.min(MAX_RESERVE));
    read_batches::<_, B>(r, n, |bytes| {
        let k = bytes.len() / B;
        if out.capacity() - out.len() < k {
            out.reserve_exact(out.len().min(n - out.len()).max(k));
        }
        out.extend(records(bytes).map(&decode));
        Ok(())
    })?;
    Ok(out)
}

/// Read a `u64` length and refuse one above `max`.
fn read_len<R: Read>(r: &mut R, max: usize, what: &str) -> io::Result<usize> {
    let n = u64::from_le_bytes(read_array(r)?);
    if n > max as u64 {
        return Err(invalid(format!("implausible {what} {n}")));
    }
    Ok(n as usize)
}

/// Preserve the `UnexpectedEof` kind but say what it means here: the
/// file ended before the advertised arrays did, i.e. a truncated write.
fn reject_truncation(e: io::Error) -> io::Error {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "truncated snapshot: file ends before the data it declares",
        )
    } else {
        e
    }
}

fn read_array<R: Read, const N: usize>(r: &mut R) -> io::Result<[u8; N]> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf).map_err(reject_truncation)?;
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunConfig;
    use galaxy::plummer_model;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("gothic-snap-{}-{name}", std::process::id()))
    }

    fn snapshot_bytes(sim: &crate::Gothic) -> Vec<u8> {
        let mut bytes = Vec::new();
        Snapshot::capture(sim).write_to(&mut bytes).unwrap();
        bytes
    }

    /// An owned snapshot of `sim`, through a byte round trip.
    fn owned(sim: &crate::Gothic) -> Snapshot {
        Snapshot::read_from(&mut snapshot_bytes(sim).as_slice()).unwrap()
    }

    #[test]
    fn roundtrip_preserves_state_exactly() {
        let mut sim = crate::Gothic::new(plummer_model(512, 10.0, 1.0, 5), RunConfig::default());
        sim.run(5);
        let snap = Snapshot::capture(&sim);
        let path = tmp("roundtrip");
        snap.save(&path).unwrap();
        let back = Snapshot::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, snap);
        assert_eq!(back.particles.len(), 512);
        assert!(back.time > 0.0);
    }

    #[test]
    fn round_tripped_snapshot_equals_its_capture() {
        let mut sim = crate::Gothic::new(plummer_model(300, 10.0, 1.0, 17), RunConfig::default());
        sim.run(3);
        assert_eq!(owned(&sim), Snapshot::capture(&sim));
    }

    #[test]
    fn one_flipped_position_byte_makes_it_unequal() {
        let mut sim = crate::Gothic::new(plummer_model(300, 10.0, 1.0, 18), RunConfig::default());
        sim.run(3);
        let mut bytes = snapshot_bytes(&sim);
        // Header: magic 8 + version 4 + time 8 + step 8 + count 8 bytes;
        // the positions follow. Flip the low mantissa bit of one.
        let at = 36 + 12 * 150 + 4;
        bytes[at] ^= 1;
        let back = Snapshot::read_from(&mut bytes.as_slice()).unwrap();
        assert_ne!(back.particles.pos[150], sim.ps.pos[150]);
        assert!(back != Snapshot::capture(&sim));
    }

    #[test]
    fn runs_of_different_n_are_unequal_either_way() {
        let cfg = RunConfig::default;
        let a = crate::Gothic::new(plummer_model(64, 10.0, 1.0, 19), cfg());
        let b = crate::Gothic::new(plummer_model(65, 10.0, 1.0, 19), cfg());
        assert!(owned(&a) != Snapshot::capture(&b));
        assert!(owned(&b) != Snapshot::capture(&a));
        assert!(owned(&a) != owned(&b) && owned(&b) != owned(&a));
    }

    #[test]
    fn stream_comparison_refuses_a_prefix_either_way() {
        let write = |expected: &[u8], chunks: &[&[u8]]| {
            let mut rest = Remaining(expected);
            let ok = chunks.iter().all(|c| rest.write_all(c).is_ok());
            ok && rest.0.is_empty()
        };
        assert!(write(b"abcdef", &[b"abc", b"def"]));
        assert!(!write(b"abcdef", &[b"abc", b"de"]), "bytes left over");
        assert!(!write(b"abcde", &[b"abc", b"def"]), "chunk overruns");
        assert!(!write(b"abcdef", &[b"abd", b"def"]), "chunk differs");
    }

    #[test]
    fn snapshot_equality_agrees_with_comparing_bytes() {
        let mut sim = crate::Gothic::new(plummer_model(200, 10.0, 1.0, 20), RunConfig::default());
        let early = owned(&sim);
        sim.run(2);
        let late = owned(&sim);
        let mut moved = late.clone();
        moved.particles.vel[7].y = -moved.particles.vel[7].y;
        let all = [&early, &late, &moved];
        let bytes = |s: &Snapshot| {
            let mut b = Vec::new();
            s.write_to(&mut b).unwrap();
            b
        };
        for x in all {
            for y in all {
                assert_eq!(*x == *y, bytes(x) == bytes(y));
            }
        }
        assert!(late == late.clone() && late != moved && early != late);
    }

    #[test]
    fn rejects_corrupt_magic() {
        let path = tmp("magic");
        std::fs::write(&path, b"NOTASNAPxxxxxxxxxxxxxxxx").unwrap();
        let err = Snapshot::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_truncated_file() {
        let sim = crate::Gothic::new(plummer_model(128, 10.0, 1.0, 6), RunConfig::default());
        let snap = Snapshot::capture(&sim);
        let mut bytes = Vec::new();
        snap.write_to(&mut bytes).unwrap();
        bytes.truncate(bytes.len() / 2);
        let err = Snapshot::read_from(&mut bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(
            err.to_string().contains("truncated"),
            "error should name the failure mode: {err}"
        );
    }

    #[test]
    fn save_leaves_no_tmp_file_behind() {
        let sim = crate::Gothic::new(plummer_model(64, 10.0, 1.0, 9), RunConfig::default());
        let snap = Snapshot::capture(&sim);
        let path = tmp("notmp");
        snap.save(&path).unwrap();
        let mut tmp_path = path.clone().into_os_string();
        tmp_path.push(".tmp");
        assert!(
            !std::path::Path::new(&tmp_path).exists(),
            "staging file must be renamed away on success"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_recovers_from_a_stale_tmp_of_a_crashed_run() {
        let sim = crate::Gothic::new(plummer_model(64, 10.0, 1.0, 10), RunConfig::default());
        let snap = Snapshot::capture(&sim);
        let path = tmp("stale");
        let mut tmp_path = path.clone().into_os_string();
        tmp_path.push(".tmp");
        // A previous process died mid-write, leaving garbage at `.tmp`.
        std::fs::write(&tmp_path, b"GOTHICSN partial garbage").unwrap();
        snap.save(&path).unwrap();
        assert!(!std::path::Path::new(&tmp_path).exists());
        assert_eq!(Snapshot::load(&path).unwrap(), snap);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_save_preserves_the_previous_snapshot() {
        let sim = crate::Gothic::new(plummer_model(64, 10.0, 1.0, 11), RunConfig::default());
        let snap = Snapshot::capture(&sim);
        let path = tmp("failkeep");
        snap.save(&path).unwrap();
        // Saving into a nonexistent directory fails at staging time and
        // must not disturb the snapshot already on disk.
        let bad = std::env::temp_dir().join("gothic-no-such-dir").join("snap");
        assert!(snap.save(&bad).is_err());
        assert_eq!(Snapshot::load(&path).unwrap(), snap);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_reader_never_observes_a_partial_snapshot() {
        let sim_a = crate::Gothic::new(plummer_model(256, 10.0, 1.0, 12), RunConfig::default());
        let mut sim_b = crate::Gothic::new(plummer_model(256, 10.0, 1.0, 13), RunConfig::default());
        sim_b.run(2);
        let (a, b) = (owned(&sim_a), owned(&sim_b));
        let path = tmp("atomic");
        a.save(&path).unwrap();

        let reader_path = path.clone();
        let (a2, b2) = (a.clone(), b.clone());
        let reader = std::thread::spawn(move || {
            for _ in 0..200 {
                let got = Snapshot::load(&reader_path).expect("load mid-save");
                assert!(
                    got == a2 || got == b2,
                    "reader saw a state that was never fully written"
                );
            }
        });
        for i in 0..50 {
            let s = if i % 2 == 0 { &b } else { &a };
            s.save(&path).unwrap();
        }
        reader.join().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn restart_is_exact_across_split_points_and_thread_counts() {
        testkit::check("exact_restart", 10, |g| {
            // Half the cases fit in one partial warp group; the rest are
            // odd, so never a multiple of 32.
            let n = if g.u64_in(0..2) == 0 {
                g.usize_in(1..32)
            } else {
                2 * g.usize_in(16..320) + 1
            };
            let (a, b) = (g.u64_in(0..13), g.u64_in(0..13));
            let seed = g.any_u64();
            for threads in [1, 4] {
                parallel::with_thread_count(threads, || {
                    let ps = plummer_model(n, 100.0, 1.0, seed);
                    let mut whole = crate::Gothic::new(ps.clone(), RunConfig::default());
                    whole.run(a + b);
                    let mut first = crate::Gothic::new(ps, RunConfig::default());
                    first.run(a);
                    let bytes = snapshot_bytes(&first);
                    let mut resumed = Snapshot::read_from(&mut bytes.as_slice())
                        .unwrap()
                        .resume(RunConfig::default());
                    resumed.run(b);
                    assert!(
                        snapshot_bytes(&resumed) == snapshot_bytes(&whole),
                        "N={n} a={a} b={b} threads={threads}: restarted run diverged"
                    );
                });
            }
        });
    }

    #[test]
    fn committed_ticks_off_the_clock_are_refused_naming_the_particle() {
        let mut sim = crate::Gothic::new(plummer_model(200, 10.0, 1.0, 21), RunConfig::default());
        sim.run(8);
        let (b, n) = (&sim.blocks, sim.len());
        let j = (0..n)
            .find(|&i| 0 < b.ptick(i) && b.ptick(i) < b.tick())
            .expect("a particle committed between 0 and the global tick");
        let (p, step) = (b.ptick(j), b.ticks_of_level(b.levels()[j]));
        // Header 36 bytes, seven particle arrays of 52 bytes a particle,
        // dt_max, max_depth and tick, one level byte a particle.
        let at = 36 + 52 * n + 16 + n + 8 * j;
        let clean = snapshot_bytes(&sim);
        assert_eq!(clean[at..at + 8], p.to_le_bytes());
        for (stored, why) in [
            (p + 1, "not aligned"),
            (b.tick() + step, "ahead"),
            (p - step, "deadline"),
        ] {
            let mut bytes = clean.clone();
            bytes[at..at + 8].copy_from_slice(&stored.to_le_bytes());
            let err = Snapshot::read_from(&mut bytes.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("particle {j} committed tick {stored} "))
                    && msg.contains(why),
                "{msg}"
            );
        }
    }

    #[test]
    fn rejects_version_1_naming_the_version() {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        let err = Snapshot::read_from(&mut bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version 1"), "{err}");
    }

    #[test]
    fn header_declaring_a_huge_count_is_truncated_not_allocated() {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&0.0f64.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&(1u64 << 32).to_le_bytes());
        assert_eq!(bytes.len(), 36);
        let err = Snapshot::read_from(&mut bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
    }

    #[test]
    fn resume_names_the_config_field_that_disagrees() {
        let snap = owned(&crate::Gothic::new(
            plummer_model(64, 10.0, 1.0, 15),
            RunConfig::default(),
        ));
        let base = RunConfig::default();
        for (field, cfg) in [
            (
                "dt_max",
                RunConfig {
                    dt_max: base.dt_max / 2.0,
                    ..base.clone()
                },
            ),
            (
                "max_depth",
                RunConfig {
                    max_depth: base.max_depth - 1,
                    ..base.clone()
                },
            ),
            (
                "leaf_cap",
                RunConfig {
                    leaf_cap: base.leaf_cap * 2,
                    ..base.clone()
                },
            ),
        ] {
            let err = snap
                .clone()
                .try_resume(cfg)
                .err()
                .expect("mismatch must be refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            assert!(err.to_string().contains(field), "{field}: {err}");
        }
        let mut resized = snap.clone();
        resized.particles = plummer_model(63, 10.0, 1.0, 15);
        let err = resized
            .try_resume(base)
            .err()
            .expect("resize must be refused");
        assert!(err.to_string().contains("resized"), "{err}");
    }

    #[test]
    fn corrupt_bytes_are_refused_or_resumable_never_a_panic() {
        let mut sim = crate::Gothic::new(plummer_model(200, 10.0, 1.0, 16), RunConfig::default());
        sim.run(4);
        let clean = snapshot_bytes(&sim);
        testkit::check("snapshot_corruption", 64, |g| {
            let mut bytes = clean.clone();
            for _ in 0..g.usize_in(1..4) {
                let at = g.usize_in(12..bytes.len());
                bytes[at] = g.u8_in(0..255);
            }
            if let Ok(snap) = Snapshot::read_from(&mut bytes.as_slice()) {
                snap.resume(RunConfig::default());
            }
        });
    }

    #[test]
    fn resume_continues_the_run() {
        let mut sim = crate::Gothic::new(plummer_model(1024, 100.0, 1.0, 7), RunConfig::default());
        sim.run(6);
        let t_snap = sim.time();
        let snap = owned(&sim);

        let mut resumed = snap.resume(RunConfig::default());
        assert_eq!(resumed.time(), t_snap);
        assert_eq!(resumed.step_count, sim.step_count);
        let r = resumed.step();
        assert!(r.time > t_snap);
        assert!(r.n_active > 0);
        resumed.ps.check_invariants().unwrap();
    }

    #[test]
    fn resumed_run_conserves_energy() {
        let mut sim = crate::Gothic::new(plummer_model(1024, 100.0, 1.0, 8), RunConfig::default());
        let e0 = sim.diagnostics();
        sim.run(10);
        let snap = owned(&sim);
        let mut resumed = snap.resume(RunConfig::default());
        resumed.run(10);
        let drift = resumed.diagnostics().relative_energy_drift(&e0);
        assert!(drift < 1e-2, "drift across the snapshot boundary: {drift}");
    }
}
