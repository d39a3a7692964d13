//! How a stripe's blocks reach the stores: the cluster's store writer takes
//! the data blocks while the calling thread encodes and writes the parity,
//! then the caller takes back whatever the writer has not started.
//!
//! The rollback test pins that a failed or panicking block write leaves no
//! block, stripe or object behind and the cluster writing on. The two
//! concurrency tests script the stores so that they pass only if a data
//! block and a parity block are written at once, and only if a put whose
//! writer is held elsewhere finishes on its own thread. Every scripted wait
//! is bounded: a regression fails these tests, it never hangs them.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use bytes::Bytes;
use ecc::stripe::{BlockId, StripeId};
use ecc::{ErasureCode, ReedSolomon};
use ecpipe::{BlockStore, Cluster, EcPipeBuilder, EcPipeError, MemoryStore, Result, StoreBackend};

const BLOCK: usize = 4096;
/// How long a scripted store waits for the event it is scripted against.
const PATIENCE: Duration = Duration::from_secs(10);

type Hook = Arc<dyn Fn(BlockId) -> Result<()> + Send + Sync>;

/// A memory store that runs a hook before every `put`; the hook can fail
/// the write, panic, or wait for another write.
struct Scripted {
    inner: MemoryStore,
    before_put: Hook,
}

impl BlockStore for Scripted {
    fn get(&self, block: BlockId) -> Result<Bytes> {
        self.inner.get(block)
    }

    fn put(&self, block: BlockId, data: Bytes) -> Result<()> {
        (self.before_put)(block)?;
        self.inner.put(block, data)
    }

    fn delete(&self, block: BlockId) -> Result<bool> {
        self.inner.delete(block)
    }

    fn contains(&self, block: BlockId) -> bool {
        self.inner.contains(block)
    }

    fn list(&self) -> Vec<BlockId> {
        self.inner.list()
    }
}

/// `nodes` scripted stores sharing one hook, and the backend built on them.
fn scripted(nodes: usize, hook: Hook) -> (Vec<Arc<Scripted>>, StoreBackend) {
    let stores: Vec<Arc<Scripted>> = (0..nodes)
        .map(|_| {
            Arc::new(Scripted {
                inner: MemoryStore::new(),
                before_put: hook.clone(),
            })
        })
        .collect();
    let backend = StoreBackend::custom(
        stores
            .iter()
            .map(|store| store.clone() as Arc<dyn BlockStore>)
            .collect(),
    );
    (stores, backend)
}

/// Waits, for at most [`PATIENCE`], until `flag` is set.
fn wait_for(flag: &AtomicBool, what: &str) -> Result<()> {
    let deadline = Instant::now() + PATIENCE;
    while !flag.load(Ordering::SeqCst) {
        if Instant::now() >= deadline {
            let reason = format!("gave up waiting for {what}");
            return Err(EcPipeError::Io(std::io::Error::other(reason)));
        }
        thread::sleep(Duration::from_millis(1));
    }
    Ok(())
}

fn stripe_data(seed: u8) -> Vec<Vec<u8>> {
    (0..4u8)
        .map(|i| vec![seed.wrapping_mul(31).wrapping_add(i * 17); BLOCK])
        .collect()
}

fn rs_6_4() -> Arc<dyn ErasureCode> {
    Arc::new(ReedSolomon::new(6, 4).unwrap())
}

#[test]
fn a_failed_block_write_rolls_back_the_whole_stripe() {
    // Bit `i` of `fail` refuses block `i` of every stripe; bit `i` of
    // `panic` makes its put panic.
    let (fail, panic) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    let hook: Hook = {
        let (fail, panic) = (fail.clone(), panic.clone());
        Arc::new(move |block: BlockId| {
            let bit = 1u64 << block.index;
            if panic.load(Ordering::SeqCst) & bit != 0 {
                panic!("scripted panic writing block {}", block.index);
            }
            if fail.load(Ordering::SeqCst) & bit != 0 {
                let reason = format!("refused block {}", block.index);
                return Err(EcPipeError::Io(std::io::Error::other(reason)));
            }
            Ok(())
        })
    };
    let (stores, backend) = scripted(8, hook);
    let pipe = EcPipeBuilder::new()
        .code(6, 4)
        .block_size(BLOCK)
        .slice_size(1024)
        .store(backend)
        .build()
        .unwrap();
    let object: Vec<u8> = (0..4 * BLOCK).map(|i| (i * 7 % 251) as u8).collect();
    let nothing_left = |case: &str| {
        for (node, store) in stores.iter().enumerate() {
            assert_eq!(store.list(), vec![], "{case}: node {node} kept a block");
        }
        let meta = pipe.meta();
        assert_eq!(meta.stripe_count(), 0, "{case}: a stripe was registered");
        assert_eq!(meta.object_count(), 0, "{case}: an object was registered");
    };

    // A data block (3), a parity block (5), and both: the lowest wins.
    let cases = [
        ("data", 1 << 3, 3),
        ("parity", 1 << 5, 5),
        ("both", (1 << 3) | (1 << 5), 3),
    ];
    for (case, mask, lowest) in cases {
        fail.store(mask, Ordering::SeqCst);
        let error = pipe.put("/object", &object).unwrap_err();
        assert!(
            error
                .to_string()
                .contains(&format!("refused block {lowest}")),
            "{case}: {error}"
        );
        nothing_left(case);
    }
    fail.store(0, Ordering::SeqCst);
    pipe.put("/object", &object).unwrap();
    assert_eq!(pipe.get("/object").unwrap(), object);
    pipe.delete("/object").unwrap();

    // A panicking store fails the put with an error, on whichever thread
    // wrote the block, and the writer keeps serving.
    for (case, index) in [("panicking data block", 0), ("panicking parity block", 4)] {
        panic.store(1 << index, Ordering::SeqCst);
        let error = pipe.put("/object", &object).unwrap_err();
        assert!(
            matches!(&error, EcPipeError::Execution { reason } if reason.contains("panicked")),
            "{case}: {error}"
        );
        nothing_left(case);
    }
    panic.store(0, Ordering::SeqCst);
    for round in 0..3 {
        let name = format!("/after-{round}");
        pipe.put(&name, &object).unwrap();
        assert_eq!(pipe.get(&name).unwrap(), object);
    }
    pipe.shutdown();
}

/// Data block 0 and parity block 4 each wait, in their store's `put`, until
/// the other has started: a put that writes its blocks one after the other
/// gives up after [`PATIENCE`] and fails.
#[test]
fn a_data_block_and_a_parity_block_are_written_at_once() {
    let (data_started, parity_started) = (
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicBool::new(false)),
    );
    let hook: Hook = {
        let (data_started, parity_started) = (data_started.clone(), parity_started.clone());
        Arc::new(move |block: BlockId| match block.index {
            0 => {
                data_started.store(true, Ordering::SeqCst);
                wait_for(&parity_started, "parity block 4's write")
            }
            4 => {
                parity_started.store(true, Ordering::SeqCst);
                wait_for(&data_started, "data block 0's write")
            }
            _ => Ok(()),
        })
    };
    let (_, backend) = scripted(6, hook);
    let cluster = Cluster::new(backend).unwrap();
    let code = rs_6_4();
    let data = stripe_data(1);
    let stripe = cluster.write_stripe(&code, 0, &data).unwrap();
    for (index, block) in data.iter().enumerate() {
        assert_eq!(cluster.read_block(stripe, index).unwrap(), block[..]);
    }
}

/// The writer is held inside stripe 1's data block 0 (its parity block 4
/// waits until the writer has taken block 0, so the caller cannot take it
/// back first). Meanwhile a put of stripe 2, on other nodes, finishes on
/// its caller's thread alone: it takes back every data block the held
/// writer cannot start.
#[test]
fn a_put_takes_back_the_blocks_a_busy_writer_has_not_started() {
    let (held, release) = (
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicBool::new(false)),
    );
    let (writers_tx, writers) = mpsc::channel::<(BlockId, ThreadId)>();
    let hook: Hook = {
        let (held, release) = (held.clone(), release.clone());
        Arc::new(move |block: BlockId| {
            let _ = writers_tx.send((block, thread::current().id()));
            match (block.stripe, block.index) {
                (StripeId(1), 0) => {
                    held.store(true, Ordering::SeqCst);
                    wait_for(&release, "the release of the writer")
                }
                (StripeId(1), 4) => wait_for(&held, "the writer to take data block 0"),
                _ => Ok(()),
            }
        })
    };
    let (_, backend) = scripted(12, hook);
    let cluster = Arc::new(Cluster::new(backend).unwrap());
    let code = rs_6_4();

    let (first_done, first) = mpsc::channel();
    {
        let (cluster, code) = (cluster.clone(), code.clone());
        thread::spawn(move || {
            let written =
                cluster.write_stripe_with_placement(&code, 1, &stripe_data(1), (0..6).collect());
            let _ = first_done.send(written.map(|_| ()));
        });
    }
    wait_for(&held, "the writer to take stripe 1's data block 0").unwrap();

    let (second_done, second) = mpsc::channel();
    {
        let (cluster, code) = (cluster.clone(), code.clone());
        thread::spawn(move || {
            let written =
                cluster.write_stripe_with_placement(&code, 2, &stripe_data(2), (6..12).collect());
            let _ = second_done.send((written.map(|_| ()), thread::current().id()));
        });
    }
    let outcome = second.recv_timeout(PATIENCE);
    // Whatever the outcome, let the held writer go before judging it.
    release.store(true, Ordering::SeqCst);
    let (written, caller) = outcome.expect("stripe 2's put waited on the held writer");
    written.unwrap();
    first
        .recv_timeout(PATIENCE)
        .expect("stripe 1's put did not finish")
        .unwrap();

    let mut stripe_2_writers = Vec::new();
    while let Ok((block, thread)) = writers.try_recv() {
        if block.stripe == StripeId(2) {
            stripe_2_writers.push((block.index, thread));
        }
    }
    assert_eq!(stripe_2_writers.len(), 6);
    assert!(
        stripe_2_writers.iter().all(|&(_, thread)| thread == caller),
        "stripe 2's blocks were written by {stripe_2_writers:?}, its caller is {caller:?}"
    );
    for (seed, stripe) in [(1, StripeId(1)), (2, StripeId(2))] {
        for (index, block) in stripe_data(seed).iter().enumerate() {
            assert_eq!(cluster.read_block(stripe, index).unwrap(), block[..]);
        }
    }
}
