"""Golden digests: the report CSV and event log of fixed scenarios, byte for byte.

Each case simulates the seed-1 generated workload under one heuristic on one
platform and compares the SHA-256 digests of the ``write_report`` and
``write_event_log`` files with the values recorded before the placement
heuristics were refactored.  A refactor or speed-up must leave every digest
unchanged; flipping a tie-break or a key order in a heuristic changes at least
one of them (mmc and mac differ on 8x8 at 10 and 40 apps).  Cases pinned to
``DEADLOCK`` are runs without the admission guard that deadlock today.

The ``dag`` cases run ``dag_workload``, a fixed hand-written DAG, instead of
a generated tree: it covers a slave with two masters and edges that carry
traffic in one direction only, which generated workloads never contain.

The ``mdijkstra`` cases run mmc and mac with the load-aware router.  Their
placement routes each candidate's slave->master path on a ledger that already
holds the candidate's tentative master->slave load, so they pin how the
scorer orders its tentative ledger updates.

The 450-app cases run long enough that each link holds hundreds of
reservations over the run, so they pin the link schedule's handling of a
long reservation history, which the short cases never build up.
"""
import hashlib

import pytest

from nocmap.model import ArchGraph, Edge, Task, TaskGraph, TaskKind
from nocmap.sim import DeadlockError, PlatformParams, Scenario, simulate, write_event_log
from nocmap.workload import GenConfig, generate_workload, write_report

from conftest import arch_16x16_ra

PLATFORMS = {
    "8x8": ArchGraph.default_8x8,
    "4x4-ra": lambda: ArchGraph.uniform(4, 4, manager=(0, 0), ra=((1, 1), (2, 2), (3, 0))),
    "16x16-ra": arch_16x16_ra,
}

DEADLOCK = "DeadlockError"

# "heuristic/platform/apps[/variant]" -> (report digest, event log digest).
# Variants: "arrivals" releases app i at cycle 500*i; "noguard" turns the
# admission guard off; "dag" runs ``dag_workload`` with staggered arrivals
# and a mapping overhead of 5 cycles; "mdijkstra" routes with the load-aware
# router instead of the heuristic's default XY.
GOLDEN = {
    "ff/8x8/1": (
        "6612043e55febc9e1c54f78f7211fbe349d378089b56b8b630b82637e65a0fe9",
        "fb84a150352e37c3a68df5b24e4b0167bd024b7ed1f1fbfdc5b1af7cd968b668",
    ),
    "ff/8x8/10": (
        "6fa0db90a2a148217847027312f32d16e358f502d0f98ee3ccdfddcf7794313c",
        "26f8ca73b07cea511f6374389a48e1876d832b8e608bf1eb1726b15e78566de8",
    ),
    "ff/8x8/40": (
        "bed3f3a806cdfb3c8b88e675a3f1501df11d5ae2276ceb89a0b902116003fe6c",
        "e0290d3e4c5c8584be2de6fed05c8772abb5752291009d018e7b2389d1655572",
    ),
    "ff/4x4-ra/1": (
        "7336ed602fd8c0d5361a6a8ce577236183eaa8f5cca2ac09bfdd52e28488141a",
        "36130be4f1d536095d44783652d005714e2fe5b3e6ad605734340002f20d2e3f",
    ),
    "ff/4x4-ra/10": (
        "6a8270c36dcc3c45dd8a64d9ec27db8b35dd5fd5b0a840aae2b140bf5730d8a2",
        "6bade60a1315b2b08e8ee8012daff2fd0f7aca899212741cb367dbfacdc708f2",
    ),
    "ff/16x16-ra/1": (
        "5546c90db26908385d19544b1d20bb70c602d8f1129e4dfdf90f06d88c20e6ab",
        "ca2e0fe269ecac5ac8f317e2e41ad5ba26c5c2a0dde4f374554fea8bb472f3e6",
    ),
    "ff/16x16-ra/10": (
        "1bb1d17aee7cf1549161aae6d31d3f97c22a42bd21de2a010888f23b6b9a7708",
        "3ecba598bf4bbb07e7d329700bf56c7dde034e5ef2cddeee8d56da7c0e8cf1aa",
    ),
    "ff/8x8/40/arrivals": (
        "ae5d63b143e801899071edecb1b13b8d073f00c31404def114627de9600f38be",
        "0a6500739322b1f7f40e671a993a3a76d6f100a1c2d73c7bc290401319ab35b2",
    ),
    "ff/8x8/40/noguard": DEADLOCK,
    "mmc/8x8/1": (
        "4ba4c6a4c14da9b7430efab2385b7d3310b9f1b91143fa934a1e8214902d7602",
        "582ffeb419ed97e2c7d300ad25dccaad8084c14522f25ec42d3aa9ed0e1d9e00",
    ),
    "mmc/8x8/10": (
        "2075ee05123f4308bfa007e8f6221c1732ff5e5c1d732b37792c648974fa8711",
        "39d8c0b35a5e9e3bf96a1da373640dce9d3c88926dd1df34f01ae87e9ef13b96",
    ),
    "mmc/8x8/40": (
        "d33e2e668c581f22da4a27615a6697bd1d3e56d982354c9bd7982ac410d350dd",
        "5915a4bc43c59112f992a1be28b7befa182f49de82b65989d3128f2ad2aff6b2",
    ),
    "mmc/4x4-ra/1": (
        "2e6d5c95d64f028dfe5460c784460d961cf2c307370ddc2613dcfdaad578bc9b",
        "61883f5f00c25c14b4d6336e09f226c1db39c0c354769d72e9e4ce9aa2095d33",
    ),
    "mmc/4x4-ra/10": (
        "13801b4af32fa20976d3836a93fc56fbf428e86cca6e8d004ec7dc2ece4633dc",
        "222599575aefd17e2651a8bdc8b0a35f05d4b010732ff284dc84fd3a192ec5a8",
    ),
    "mmc/16x16-ra/1": (
        "d3c9bebfd07f8a008846ad59be8203ad7aff384a7ff9ad0ce3b75e82aa67c67e",
        "01806aeb982183fbf5f374ddf3616f946e3a829c9ae6ea3e73c2401d4cfa4f0e",
    ),
    "mmc/16x16-ra/10": (
        "f4ca6824756cc2e0912217dceb0e7caf55a1d6581077f9cb55702a448c1b0321",
        "6cb1b0e67f1e710f3ee5a60fe2f9ffedd1f65a50d633471c34b1fc25c50d4879",
    ),
    "mmc/8x8/40/arrivals": (
        "3f9b245a0c886ea0bef1dc885017edf737319aa9346171fa83c264b399d5e2db",
        "556a7f4e1ac6de942d6cd3700428d9cf638ec5f6ab52b2df16545f50d58b3e7c",
    ),
    "mmc/8x8/40/noguard": DEADLOCK,
    "mac/8x8/1": (
        "7b2fd214766e1e8617dbf40cce6441f539fcdb5d11bf6d4cb9ca228f846e0864",
        "582ffeb419ed97e2c7d300ad25dccaad8084c14522f25ec42d3aa9ed0e1d9e00",
    ),
    "mac/8x8/10": (
        "64796cf0c5c31645edc9c2b8fda2239aa601edec7c6274915ace05e9cf74cc12",
        "d518b204e90fa7b5df25a05ac2f1b25487a0cdd1a343d5d68bd35e2546f3d99b",
    ),
    "mac/8x8/40": (
        "5f7e14626d6330f6342064074f7208199b09da6e800221cb12b9cd08a4b0524f",
        "b5d3237946ff0a1ba4a9d640798da71a7e5cf39f85dac43bec35e6b6dad45654",
    ),
    "mac/4x4-ra/1": (
        "334802da25cdcd46dc2a22076ae0cb29e8a11ef02822f02a84dc7fe3fd7edb6c",
        "61883f5f00c25c14b4d6336e09f226c1db39c0c354769d72e9e4ce9aa2095d33",
    ),
    "mac/4x4-ra/10": (
        "dc8893f35c2be95b958b6a413be55c2b0ed57479e53317576e8328fa33c80a00",
        "222599575aefd17e2651a8bdc8b0a35f05d4b010732ff284dc84fd3a192ec5a8",
    ),
    "mac/16x16-ra/1": (
        "4d693078f0f6f999b6fc5aee55e00f4e82bc92b92959002f48b1e8550af391ef",
        "01806aeb982183fbf5f374ddf3616f946e3a829c9ae6ea3e73c2401d4cfa4f0e",
    ),
    "mac/16x16-ra/10": (
        "37a309ceac207e568e9c1613cbb6b1749c96f8c5973b0b6291f09ff13c5a19a7",
        "075e2ad40f2ebf90adf38e0d4f7b5dfefa1dbeafba3482990c1eb342d2e37857",
    ),
    "mac/8x8/40/arrivals": (
        "9a0aaed44c7ddf8e2d9ff4a54d462efbcf03615d890cfae87a414f8aee24cc25",
        "26a23bd9f0ddbe053a6424d8dd79291c3ab70bc4ef07ec6eb0aed839d9689b1f",
    ),
    "mac/8x8/40/noguard": DEADLOCK,
    "nn/8x8/1": (
        "f03ddf5e7829aed85a26b40ced18e281b72b3fb81494813e076940b863adb90a",
        "5d0fdc32fee0f5f2e584f498064707655065971f2de8ab035310ad976af47969",
    ),
    "nn/8x8/10": (
        "b8c9e7f14fd9e910f179a5118fcf268d81d0d3955ff1219e2adbb0562b6965b1",
        "55043fa1dbe52e184b6739548aa94ba9068a44b5cd7318fc691995aac5c4da2c",
    ),
    "nn/8x8/40": (
        "ccdd8c401d5747e082f7ed708331a0a755de8324eddae272ff3f0227445d7d4c",
        "0b8a4b6c0e2449283d708a801e12b25f9677ec1ad5f79e76fe9f1cd4e8f02365",
    ),
    "nn/4x4-ra/1": (
        "34b881739c89a5fb2609f3a0bb0b9951a39b83260eefcab517cdb1e7924d40cd",
        "0f31c0b346101273da465f9cbe6ea6983c93c873229403d16c4b7e3d78eca2d0",
    ),
    "nn/4x4-ra/10": (
        "ed853620e60fbf9c309fbf48d5a343994146bed7b97993296439cea4f8483f3a",
        "a37e0f59b689660514e42c4f6d431fc21a3f8af02ecc27b90bf68bbe2a2dd313",
    ),
    "nn/16x16-ra/1": (
        "9ba0697c67f0811af615e707992d6113d3f8fc5670e2bc416ec14de40e73dcba",
        "5d0fdc32fee0f5f2e584f498064707655065971f2de8ab035310ad976af47969",
    ),
    "nn/16x16-ra/10": (
        "9b16c28a22baab6e6d37e7432a6b0f717aa93c0829b55aa026fa14c382c75f37",
        "46077adf410fab0480ebb950e90891f7029dfe059ae69c77de69cb856a7b99b2",
    ),
    "nn/8x8/40/arrivals": (
        "8a06fc1c69c44bd2ed61ea68b60f21678411e15fcaf8f2b045dfb3966502fd4a",
        "387cf7ea640772c7bb36dea1e400e7233f6935f332df34cc366ae6448e61f749",
    ),
    "nn/8x8/40/noguard": DEADLOCK,
    "pl/8x8/1": (
        "fdb4eec323c6cc544475f0857da33e3995ff7e26ab3cdb705714c9be711961d2",
        "582ffeb419ed97e2c7d300ad25dccaad8084c14522f25ec42d3aa9ed0e1d9e00",
    ),
    "pl/8x8/10": (
        "5f79983b72c2ed6864c3082d4e61762cb2a7af6b5871f44d222dbb0deb329eed",
        "bc59fdc58d407365a8a28da8d279060025e50331b9e725d5a31c06f7796e073c",
    ),
    "pl/8x8/40": (
        "2d2b81832c61f16fc938b227d6091e59168920a696af4521ff3650ed7103bde7",
        "1d1276354eff63d0d15a2b420b2bac586582fe232b6145b9629fc1cd126a9aba",
    ),
    "pl/4x4-ra/1": (
        "95b6246199399411bb956d284524c2b62455c112f480b7c6a04fc8619c6fd46e",
        "61883f5f00c25c14b4d6336e09f226c1db39c0c354769d72e9e4ce9aa2095d33",
    ),
    "pl/4x4-ra/10": (
        "330ba6cbad58291f20ee0a475e6bc487a6fda0546d2febb167875ed557b74ca9",
        "3f85f73c805d8703dba73645082b3f1add3b4ef59729592a3e1cd5477c273f2a",
    ),
    "pl/16x16-ra/1": (
        "e823a299a20ac100a43ab045b991a719cd014189daf8fcdd0c5279badb54179c",
        "01806aeb982183fbf5f374ddf3616f946e3a829c9ae6ea3e73c2401d4cfa4f0e",
    ),
    "pl/16x16-ra/10": (
        "239e077b3123d48aee499bcb6e74f06e60208c44858260d6193b664d87537938",
        "46b5d64bbdfa3b67f35e84043d5f2511f82714b6c087055d44fe4cbfd9599be6",
    ),
    "pl/8x8/40/arrivals": (
        "94325af2152d58198be92e47361726c587ad247a4570772dafca181b9bc74f18",
        "5cf180045460919bc31930a2a55cdd519a94bc457d910ddd3ba9d76da696afeb",
    ),
    "pl/8x8/40/noguard": DEADLOCK,
    "bn/8x8/1": (
        "6276b2fedb70ee798390b9e3c736342772499d76ea69fabcaf71e824f9348413",
        "f050568575f074f09015f012c5b6d445a134dea02dc167352a61dd76ce1957c6",
    ),
    "bn/8x8/10": (
        "b25b6ff0f31ba7b77f43d163e17380ad4810c3bf1914ac8d3144b1d480546fb5",
        "2985ff65ff40e7e3b8081068809c2df78b63e87120d71ec05c0046c1b9cefe8e",
    ),
    "bn/8x8/40": (
        "d947ba7b64e6042002602f1784d3817e621d004a003ce2f2f89db4705056baf7",
        "9b36c8d0a0a7de98ddd57e9d6692337a62d55467d2035ed00e821729787f3dd0",
    ),
    "bn/4x4-ra/1": (
        "c06a8a9b29198e960a3bfcb2a4ea2c7f8513411b8fffa6e13db0caf981484f43",
        "f36a3e5390e2e2df520d575025f7584e9422d698e99d1cf0158834f8a76a2504",
    ),
    "bn/4x4-ra/10": (
        "0ecc982fffe396ef7892443e13c5a762f622702448204e2ce9609a7010da51c3",
        "9410c9f7b6ba78b71937f36dd2ca1141b8f5d7ad64dd56d98e7b111a79444690",
    ),
    "bn/16x16-ra/1": (
        "00ee93790830ef9e7d3a12c6c91e7f49604dc043bae57f287df2ce33f5dec44c",
        "f050568575f074f09015f012c5b6d445a134dea02dc167352a61dd76ce1957c6",
    ),
    "bn/16x16-ra/10": (
        "ec47262fb0e031d09cdf98a5bb640566dc7fe28d698888871cb38b605975d45f",
        "f29daca9876ab46dce4e567b5ed6d27ac1380dca6a866aaa4b20af213256113a",
    ),
    "bn/8x8/40/arrivals": (
        "b6cfc7c1ee8456712e43f311994b94b351fa2e7247d07f86f85a0ea46b946f77",
        "9b7e6b46444d8249fc89214a1fb60cc965a2469d1ed5527e25758a5683275e37",
    ),
    "bn/8x8/40/noguard": DEADLOCK,
    "spiral/8x8/1": (
        "09490028a15fafde492891148012259a8002f0f55d90eab92734dae3cc9e6d5c",
        "ec5f17f943987c526149d5ef85a81f38e88ff697339c4121121477b55ea8fe10",
    ),
    "spiral/8x8/10": (
        "269c55b7d93194f441402ec7de19191dd52cb87ceb3810fa18d0826a7c0de90f",
        "a40245d2ac4a3ada43c98967be330cb85dd264dac4bcbe54aac292473cb21a7e",
    ),
    "spiral/8x8/40": (
        "bea2ce4a887096b44c985bb5c07a6ef220a68ad6c8eb1cb8c075aaa70fe4ee81",
        "cbd6f8e2324c4b118e93dd10b181e4939cb337611a1d01a73e40e11b04e3290f",
    ),
    "spiral/4x4-ra/1": (
        "c938f5eb79d033b625f8d7abee3513dd60e18c5d4901f3ba7cbc0f9bf814c384",
        "ddbddb79262d9174cf166e2c25e3a19b08d9136d4c1acf07b1bd3b35c3af85db",
    ),
    "spiral/4x4-ra/10": (
        "9b224e94cd8f67fe0ddfd075efe9c6dd8b1209b1b613fe996838696186ad201d",
        "338f6b88819924bb797cae0e772e6e683681619b9b679ec90746e7796d5a901d",
    ),
    "spiral/16x16-ra/1": (
        "5899d5e13596d800c9894311b44285ae0595bc02663057b1575a5b26d54f99ef",
        "af337c4fcd2ca15aac4b7d505e200719665e9c14aad296aae36cab2fc0709766",
    ),
    "spiral/16x16-ra/10": (
        "9edf96e59c9dafce605e320f2b6ca46516354287b1503c1e0306992f91b6d759",
        "d77670f90189af93fbb765e36b1869074f3c3b2fe15c06de1f953769218593f3",
    ),
    "spiral/8x8/40/arrivals": (
        "db65518574581a2c3439228b07ea5cf1e4f765211e696765c69d1c05b24bc86f",
        "b19f83414e6d903a66827c5540c8f814343c56bd464f8d0234dff209117d9106",
    ),
    "spiral/8x8/40/noguard": (
        "bd554dd26e2c395518e2c140699297afe805aeef527a2847ec70a68d4bc7f4c1",
        "e1c3233fa014c2891d7ff77717c84d0c16ae195f3ad427257b4d37fa7a63e6c0",
    ),
    "ff/4x4-ra/5/dag": (
        "6876ce77f1ab78b0f19d7f4ad759d8e21573f30bea35fa6f3631da9dab4064b4",
        "e962965c8e63f69ad302b3a276e4b02db199310687569792cde96e75c326f964",
    ),
    "mmc/4x4-ra/5/dag": (
        "05b5f8c7da42fb1c47be494c56f15ed7f50da11cc94d6ebc3c6397f5350f2df5",
        "857bb132f95dda736c51e353e33fd3b51d67185239faffbc73afadd02c224852",
    ),
    "mac/4x4-ra/5/dag": (
        "27ccee56ae44272482859492ce52e3c9dc063da2683c75eacccde0fe5d5fafc0",
        "a2a87231fc2bb8a3d9c0656ea4be5a603975145d238e335f2c59f29bf522cc10",
    ),
    "nn/4x4-ra/5/dag": (
        "6e9d9f674eda3fea6f234754ab93f17cd5311c64f71e6a0f9658ff6f73803de9",
        "0f5252f1ead6a93a038043237b74550b4af4a1b042ce5ffc469fd4c9ae907e4d",
    ),
    "pl/4x4-ra/5/dag": (
        "07d25eb1ac17b9e568aa79a8a76cffaf0c5cfb270b9ed682994c0a8e9ed0265e",
        "9694c62d15c84a07c31c312a9e679d2d8cf4883ac09c5721741a99c3d0c9d076",
    ),
    "bn/4x4-ra/5/dag": (
        "6e5bce327a79f619de54f19b1e0f0420aa2984266fcbaefe9f1e6a8fa13a88bf",
        "a8015ff024e43f1dfeda086b6ed5035c89ec34629c758eb75ecfdf50c93b9be3",
    ),
    "spiral/4x4-ra/5/dag": (
        "ad1ba2584232035d6f7d74fd604579d4c681b59b6ad8f84f3e5d7311918778d2",
        "53ed8f4c7b9472049c21e02340fa9004a2a8dc8f00ef34f2895032b234f05b37",
    ),
    "mmc/4x4-ra/10/mdijkstra": (
        "1bb3ae40326b845fc3006488af649449ee58937d3be42a3b5cc036cce606e71b",
        "5a4fbc0836518e57d239f42ac06368fcf399ac3cb7ec64b8fcfcfc615f75aa07",
    ),
    "mmc/16x16-ra/10/mdijkstra": (
        "d7513c447d7ed5953036ed559f3b0fce2634b9e6c90c934ac277ee186321301b",
        "4f874a1c859fc80870d05a386c2f8f1403fd5009c3a3233fe5a3150d7e025f95",
    ),
    "mac/4x4-ra/10/mdijkstra": (
        "855363f89380ddd7293b796dcfb01e507069893a345442a32cccb2d16350ec82",
        "5a4fbc0836518e57d239f42ac06368fcf399ac3cb7ec64b8fcfcfc615f75aa07",
    ),
    "mac/16x16-ra/10/mdijkstra": (
        "106c64ad6b89e932744a85cb5815eb7a2b793c9b60d5d8e8d982b8db81440867",
        "4f874a1c859fc80870d05a386c2f8f1403fd5009c3a3233fe5a3150d7e025f95",
    ),
    "ff/8x8/450": (
        "52ef4014fc694a6f02188ec330d83b82a158142ef4d134bb9319defe8965db4c",
        "fa72646e295867f85df40a3ac7ba4d633fda233c1184d256c87bf0ce2a1fea57",
    ),
    "spiral/8x8/450": (
        "d94df9e983751d6615d0b4c7f91062f6640a3bde4191a62e106af3e7372bda48",
        "d11995d364df5b3de1924f1d4543cfb648a813ae02da6f8a911aafa838607cbe",
    ),
    "ff/8x8/450/arrivals": (
        "caa7365345a147741955f1f87dae72871893025d36f6222ba6be908d8cdba9b6",
        "7d5d9f7a86ad7940378b383a2651128250ccf367000a3a5a876e998678c190a1",
    ),
}


def dag_workload(n):
    """``n`` copies of one DAG: t0 feeds t1 and t2, which both master the join
    t3; t1 also masters the hardware task t4.  t0->t2 carries no
    slave->master traffic and t2->t3 no master->slave traffic."""
    tasks = [
        Task("t0", TaskKind.INITIAL, 50),
        Task("t1", TaskKind.SOFTWARE, 80),
        Task("t2", TaskKind.SOFTWARE, 60),
        Task("t3", TaskKind.SOFTWARE, 40),
        Task("t4", TaskKind.HARDWARE, 90),
    ]
    edges = [
        Edge("t0", "t1", 100, 40),
        Edge("t0", "t2", 60, 0),
        Edge("t1", "t3", 50, 20),
        Edge("t2", "t3", 0, 30),
        Edge("t1", "t4", 70, 70),
    ]
    return [TaskGraph(f"app{i}", tasks, edges) for i in range(n)]


def golden_scenario(key):
    heuristic, platform, apps, *variant = key.split("/")
    n = int(apps)
    if variant == ["dag"]:
        return Scenario(
            apps=dag_workload(n),
            heuristic=heuristic,
            seed=1,
            arch=PLATFORMS[platform](),
            arrivals=[i * 250 for i in range(n)],
            params=PlatformParams(manager_overhead=5),
        )
    kwargs = {}
    if variant == ["arrivals"]:
        kwargs["arrivals"] = [i * 500 for i in range(n)]
    elif variant == ["noguard"]:
        kwargs["admission_guard"] = False
    elif variant == ["mdijkstra"]:
        kwargs["route_policy"] = "mdijkstra"
    return Scenario(
        apps=generate_workload(GenConfig(app_count=n, seed=1)),
        heuristic=heuristic,
        seed=1,
        arch=PLATFORMS[platform](),
        **kwargs,
    )


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("key", list(GOLDEN))
def test_golden_digests(key, tmp_path):
    """Cases of up to 40 apps also run ``check_engine`` after every event
    batch; the checked run must give the digests recorded without it."""
    scenario = golden_scenario(key)
    check = len(scenario.apps) <= 40
    if GOLDEN[key] == DEADLOCK:
        with pytest.raises(DeadlockError):
            simulate(scenario, check)
        return
    report = simulate(scenario, check)
    write_report([report], tmp_path / "report.csv")
    write_event_log(report.event_log, tmp_path / "events.csv")
    assert (_sha256(tmp_path / "report.csv"), _sha256(tmp_path / "events.csv")) == GOLDEN[key]
