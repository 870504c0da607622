"""Golden digests: the SHA-256 of outputs whose bytes must never change, and
the `rollup` benchmark's message-log digest. Each is written here once;
the tests and `ci/checks.py` read this table, and `tests/test_ci.py` fails
if a digest literal appears anywhere else. It imports nothing, so the CI
script reads it without the package or pytest.

A layout change made in both an encoder and its decoder still round-trips,
so only fixed bytes catch it.
"""

# compiled images: demo/data/cpu.xml and tests/data/table1.xml describe the
# same CPU and compile to the same bytes
CPU_IMAGE = "85a7e82a6a148c7f8188332740cb0a951acc192358dd24d84888232ff27867d8"
BOARD_IMAGE = (
    "c6d951e0eb905796aa7d737c8d92f3493d161c2c83239c444114f4e0d421e27c")
SYNTHESIZED_8_IMAGE = (
    "a4ed551fafeb5715f4ecdfc26fed2efd5b8da3b6dd89d8757553f3c130666f00")
# the cpu.xml image after appended detections and one prune
CPU_PRUNED_IMAGE = (
    "11c83d224a4ed3bc1151ec8153cce0c53afbecd5d20396a8aeccdef79eaa12f6")

# the final image, `hm rm` stdout and `hm affinity` stdout (both with CPU.C3
# under maintenance) after the 22 injects of demo/data/inject_chain.txt, in
# the order demo/inject_chain.sh prints them
CHAIN = (
    "6a7c41809d6b78d61de3f703696cf9087028018e4e428e01b386ec55e81df841",
    "dccd42ad47636e1f15778ef72d34d3eeddf7073051bce9f1ce54b53a504e1a69",
    "3f20fb18d8b9b13b99ac7a73d30ade1a2cc65f69607e5c475b8b20810931b9ed",
)
# `hm dump` stdout of that final image with its sidecar: the one output
# that shows a whole load's list and record order
CHAIN_DUMP = (
    "43e4ef0ca532888fce0e09fb0a7aeffebe0d175129618c7b5056b7a0a7e635dd")

# `python demo/library_tour.py` stdout
LIBRARY_TOUR = (
    "1e951063914c0ae4b766bcf9160180944f9fc39e57387390aa0bf27643a0dacb")

# `hm simulate demo/data/board.scn` stdout, which is also its `--out`
# messages.log followed by rm.log
ROLLUP = "bd35a98e30032dc2ea9b552feb9aa397dd40558d2ee29d083a390f9cd9d708b7"

# the first 16 hex digits of the sha256 of the message log that
# `perfbench/run.py --workload rollup --seed 1` simulates: the run's
# `message_log_digest`, the same for any run length
ROLLUP_MESSAGE_LOG = "a45bc660ed75ce9c"
