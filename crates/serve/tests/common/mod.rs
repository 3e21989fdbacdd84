//! Helpers shared by the daemon test binaries.

use mrx_datagen::Prng;
use mrx_serve::MAX_REQUEST_FRAME;

/// One seeded malformed frame and whether the server owes it a reply.
/// `false` means the abuser hangs up after a partial frame and the server
/// must simply reap the connection.
pub fn malformed_frame(rng: &mut Prng) -> (Vec<u8>, bool) {
    match rng.gen_range(0..5usize) {
        // Declared length beyond the request cap: rejected pre-allocation.
        0 => {
            let len = rng.gen_range(MAX_REQUEST_FRAME as u64 + 1..u32::MAX as u64);
            ((len as u32).to_le_bytes().to_vec(), true)
        }
        // Garbage verb byte in an otherwise well-framed payload.
        1 => {
            let verb = 32 + rng.gen_range(0..200u64) as u8;
            let mut payload = 7u32.to_le_bytes().to_vec();
            payload.push(verb);
            payload.extend_from_slice(&[0u8; 4]);
            let mut f = (payload.len() as u32).to_le_bytes().to_vec();
            f.extend_from_slice(&payload);
            (f, true)
        }
        // QUERY whose tenant length lies far past the frame end.
        2 => {
            let mut payload = 9u32.to_le_bytes().to_vec();
            payload.push(1); // VERB_QUERY
            payload.extend_from_slice(&(rng.gen_range(100..u16::MAX as u64) as u16).to_le_bytes());
            payload.extend_from_slice(b"x");
            let mut f = (payload.len() as u32).to_le_bytes().to_vec();
            f.extend_from_slice(&payload);
            (f, true)
        }
        // Empty payload: too short to even carry a request id.
        3 => (0u32.to_le_bytes().to_vec(), true),
        // Truncated frame: declare more than is sent, then hang up.
        _ => {
            let declared = rng.gen_range(16..512u64) as u32;
            let sent = rng.gen_range(0..declared as u64 / 2) as usize;
            let mut f = declared.to_le_bytes().to_vec();
            f.extend(vec![0xAAu8; sent]);
            (f, false)
        }
    }
}
