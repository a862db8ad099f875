//! A record's key and value live inside the record: building the input
//! splits of a grid, and a worker taking a map task off the wire,
//! allocate per split or per frame, never per record. The file has its
//! own global allocator, which counts the requests a thread makes while
//! it is armed (the harness of `mapreduce/tests/segment_fuzz.rs`).

use scihadoop_grid::{Shape, Variable};
use scihadoop_mapreduce::{run_worker, Emit, FnMapper, FnReducer, JobConfig, Transport};
use scihadoop_queries::{dataset_splits, KeyLayout};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read, Write};
#[cfg(not(unix))]
use std::net::{TcpListener as Listener, TcpStream as Stream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener as Listener, UnixStream as Stream};
use std::time::Duration;

// ---- allocation counter ---------------------------------------------------

/// Counts the current thread's allocations while [`allocations`] has it
/// armed.
struct Counting;

thread_local! {
    // Const-initialized and without a destructor: reading it from inside
    // the allocator neither allocates nor registers anything.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note() {
    let _ = COUNT.try_with(|count| {
        if let Some(n) = count.get() {
            count.set(Some(n + 1));
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the count is a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f`, returning its result and the allocations (and reallocations)
/// it made on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNT.with(|count| count.set(Some(0)));
    let out = f();
    let n = COUNT.with(|count| count.take()).unwrap_or(0);
    (out, n)
}

// ---- input splits ---------------------------------------------------------

#[test]
fn building_splits_allocates_per_split_not_per_cell() {
    let var = Variable::random_i32("t", Shape::new(vec![64, 64]), 1000, 11).unwrap();
    // 12-byte keys and 4-byte values: both inline.
    let layout = KeyLayout::Indexed { index: 0, ndims: 2 };
    let (splits, n) = allocations(|| dataset_splits(&var, &layout, 4).unwrap());
    assert_eq!(splits.len(), 4);
    assert_eq!(
        splits.iter().map(|s| s.records.len()).sum::<usize>(),
        64 * 64
    );
    // A few for the boxes, the key buffer and the split list, then a
    // record vector and a box shape per split (12 in all today, against
    // 8,460 when each record held two vectors of its own).
    assert!(
        n <= 8 + 2 * splits.len() as u64,
        "{n} allocations for {} splits of {} cells",
        splits.len(),
        64 * 64
    );
}

// ---- a map task off the wire ----------------------------------------------

// Wire tags (`dist::wire`'s message table).
const HELLO: u8 = 1;
const TASK_REQUEST: u8 = 2;
const MAP_TASK: u8 = 3;
const MAP_DONE: u8 = 5;
const SHUTDOWN: u8 = 12;

/// One frame: `u32` little-endian payload length, then the payload.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(payload);
    wire
}

fn read_frame(conn: &mut Stream) -> Vec<u8> {
    let mut len = [0u8; 4];
    conn.read_exact(&mut len).unwrap();
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    conn.read_exact(&mut payload).unwrap();
    payload
}

/// A `MapTask` for task 0, attempt 0 over `records` records with 12-byte
/// keys and 4-byte values, every byte string `u32`-length-prefixed.
fn map_task(records: u32) -> Vec<u8> {
    let mut payload = vec![MAP_TASK];
    for v in [0u32, 0, records] {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    for i in 0..records {
        let key = [[0u8; 4], (i / 64).to_be_bytes(), (i % 64).to_be_bytes()].concat();
        for bytes in [&key[..], &i.to_be_bytes()] {
            payload.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            payload.extend_from_slice(bytes);
        }
    }
    frame(&payload)
}

/// A listener on the socket family the worker speaks, and the address
/// it gives `run_worker`.
#[cfg(unix)]
fn bind(records: u32) -> (Listener, String) {
    let path = std::env::temp_dir().join(format!(
        "scihadoop-record-allocs-{}-{records}.sock",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let addr = path.to_string_lossy().into_owned();
    (Listener::bind(&path).unwrap(), addr)
}

#[cfg(not(unix))]
fn bind(_records: u32) -> (Listener, String) {
    let listener = Listener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    (listener, addr)
}

/// The allocations one worker makes over a whole conversation that
/// carries a single map task of `records` records. The mapper emits
/// nothing, so what scales with the records is the frame's decoding.
fn worker_allocations(records: u32) -> u64 {
    let (listener, addr) = bind(records);
    let worker_addr = addr.clone();
    let worker = std::thread::spawn(move || {
        let mapper = FnMapper(|_: &[u8], _: &[u8], _: &mut dyn Emit| {});
        let reducer = FnReducer(|_: &[u8], _: &[&[u8]], _: &mut dyn Emit| {});
        let config = JobConfig::default();
        let (ran, n) =
            allocations(|| run_worker(Transport::Uds, &worker_addr, 0, &config, &mapper, &reducer));
        ran.unwrap();
        n
    });
    let (mut conn, _) = listener.accept().unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    assert_eq!(read_frame(&mut conn)[0], HELLO);
    assert_eq!(read_frame(&mut conn), [TASK_REQUEST]);
    conn.write_all(&map_task(records)).unwrap();
    assert_eq!(read_frame(&mut conn)[0], MAP_DONE);
    assert_eq!(read_frame(&mut conn), [TASK_REQUEST]);
    conn.write_all(&frame(&[SHUTDOWN])).unwrap();
    if cfg!(unix) {
        let _ = std::fs::remove_file(&addr);
    }
    worker.join().unwrap()
}

#[test]
fn decoding_a_map_task_allocates_per_frame_not_per_record() {
    let one = worker_allocations(1);
    let thousand = worker_allocations(1000);
    assert!(
        thousand <= one + 2,
        "a 1,000-record task made {thousand} allocations, a 1-record one {one}"
    );
}
