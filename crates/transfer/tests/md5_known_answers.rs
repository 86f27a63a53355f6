//! MD5 known-answer vectors: every message length 0..=130 (each padding
//! case on both sides of the 55/56/64-byte boundaries, over two blocks)
//! plus 1 KiB, 2 KiB and 18 KiB, the block and file sizes the sync kernels
//! hash. The expected digests were produced independently with Python's
//! `hashlib.md5` over the same byte pattern ([`message`]), so a padding or
//! round-function bug shared by the one-shot and streaming paths cannot
//! pass.

use transfer::Md5;

/// The test message of length `n`: a fixed non-periodic byte pattern,
/// `((i * 131 + 17) ^ (i >> 3)) & 0xff` for byte `i`.
fn message(n: usize) -> Vec<u8> {
    (0..n).map(|i| ((i * 131 + 17) ^ (i >> 3)) as u8).collect()
}

fn hex(d: [u8; 16]) -> String {
    d.iter().map(|b| format!("{b:02x}")).collect()
}

/// (message length, `hashlib.md5(message(length)).hexdigest()`).
const VECTORS: [(usize, &str); 134] = [
    (0, "d41d8cd98f00b204e9800998ecf8427e"),
    (1, "47ed733b8d10be225eceba344d533586"),
    (2, "63e46c8ca14c7cb44302d366288a94a0"),
    (3, "e7be5eaae34d6d1710b475ee848b97ad"),
    (4, "c2ee6208c573d544bfec85f760f4cb39"),
    (5, "3c219540a69866cdf1bbdeec2de52da5"),
    (6, "cc8061e588052ecd9dd0f8eefb1867e9"),
    (7, "e8f47c450f168465c001d816a7b17336"),
    (8, "aaec226da9543c352f9f3f888bcf4548"),
    (9, "a2d37d7548c2796a9de67b6f31bf8aee"),
    (10, "5549845166bf821ce622a5def11e2c71"),
    (11, "e3f56c849ba190e7618816635b7cec94"),
    (12, "282958eee469105cdf023c007380d29c"),
    (13, "32e422a16a6ce8b4ae0d8906cd24978c"),
    (14, "29939dd9b81d02a1c14fe6df6e421e31"),
    (15, "98c57045430cc96c1585b62856189918"),
    (16, "3932c53407f63d57213da4d2ec69cc97"),
    (17, "37a991cfe842d3193ad2e030c2ed85f4"),
    (18, "515b7a6b813e41bf8369b4c061008444"),
    (19, "db868eae8eb9a0ee9fe55ca63e2d3644"),
    (20, "adac01b8f7fc752d23f07aca8897f49b"),
    (21, "846af96321ea33bfdf1a8de6da4aabea"),
    (22, "ab171d30cbff85115d1e0d2101ff3457"),
    (23, "f04adad0bcd4571e2338ddcd40e10bfb"),
    (24, "cf4693eb0dbd4717b0c56895f7b4cf61"),
    (25, "e098263c0df7dbaa28f9dff8130110b5"),
    (26, "60272f0817394e71d2b89268269057a3"),
    (27, "671a745bec9f3521154dd9eb01d5cd1c"),
    (28, "937df9387ad287393539c734cda870ce"),
    (29, "0f77399d9342430ea11b1d82eca0cb7c"),
    (30, "6269ea07e3e5711d0450955030589f17"),
    (31, "3e2a4950a56491ffcaaa9d70acaa751f"),
    (32, "83036df88bb0fd8de8ec9d0f2b37e2b1"),
    (33, "90e824202a90adc15df16d30975cd819"),
    (34, "0ef6fba3ec1e5f1d752cc1b5f5f32c52"),
    (35, "a4ccaa79e53eea414656b8c43a61dfc4"),
    (36, "307a218c7e5a69825d8f466c2347268b"),
    (37, "7774c4dc6778bd087eeeed0e61f0ba38"),
    (38, "4667f72d706c245b23b1bc47d498ff7a"),
    (39, "adb44a1c080de0ed0f9abbe36bb74f3f"),
    (40, "dc90989397399b7938072f4e9ee62b8b"),
    (41, "7910ad789303c0edb6862524228b297c"),
    (42, "4309675cf0767d5c2a8d4a4c64d2e20c"),
    (43, "ae5c15ec24eb03382ba1f6ff81f383c5"),
    (44, "56d6a31e3b14a3cdf6c0e1c81f777164"),
    (45, "e0646bed050be40f9e6b7f7b81ec469c"),
    (46, "9de84ad01fca87826ec366d863109e8e"),
    (47, "139c5f1120772eae1275beeafcc1e090"),
    (48, "f24ede09fb01f3990b8b67fbeab47321"),
    (49, "41f5a3bb5b76c3dd784772fccf2c597d"),
    (50, "e8fc114949dad57767701ed8f2383fbb"),
    (51, "cd5033e7d71b69d97ddec83d8ad5d88b"),
    (52, "ca5ef666c50e9c4da634f7a53a27bc9f"),
    (53, "9448937c0d89d24fd2e17baf3fc7124d"),
    (54, "fb43299bec59370b4027d939222bc6e3"),
    (55, "909b1ad60bac97444e783038a345af7e"),
    (56, "4e29be1c45e91588294fb2afbf0919c3"),
    (57, "b195fa477143b0b96b54a49f544e92c8"),
    (58, "63fdcb6656c63d6714bc46932eb5c605"),
    (59, "bb557558fb72cb703b54f7ed2b771f1f"),
    (60, "8b0c0b7ac01b1dcb379a43a53f92389d"),
    (61, "8439d49028669c99da979b637ee0284e"),
    (62, "f59a61d9c51a9bf04ded893b114e79ca"),
    (63, "65a865d9aab4a64a75f9416a9aa4bab3"),
    (64, "b6faf1b1996fb084ea54234fb37edd6a"),
    (65, "a2dcf591add0df50e3684abf2e639243"),
    (66, "b2d5b01a524ed7a533a45ae38d478ab0"),
    (67, "5463d33c99610886d1e9c45f5c25a1e2"),
    (68, "1d2eebd8c3854817fb4260efe242955d"),
    (69, "812a2374596cdcd33370135d2dc0c46f"),
    (70, "25ee943ec715dca3a14356fa5f441133"),
    (71, "e0afbbda281668e213fc686c8af6e034"),
    (72, "c8a55451062efe9a89ce227cf1f87cc8"),
    (73, "970f6594cee60f5ba92ec0484d1d8b06"),
    (74, "c617b3e7ac0971d5448da5732af0638d"),
    (75, "144787c2142caf23a0934f68b8ca0879"),
    (76, "a3fbe2424e9282a60153efb8ce2b8982"),
    (77, "e0b26e9672433b83e774a6cf0ce3883a"),
    (78, "553e1d5d6ca1277c2d30d8c4eeec695b"),
    (79, "8806bc0ff745279065ba0b70cb938103"),
    (80, "63f4fa903e38a64011dff597be6ceebf"),
    (81, "5a59390c56212599d0fa0309992287a9"),
    (82, "0d031a287ed19bc6c18441582c59bfae"),
    (83, "031452efd3fc820bcd19fb2872b03af4"),
    (84, "d2858ef9a008d5f734a62643416138c5"),
    (85, "9976496676b0136ea82a395dce5e9d08"),
    (86, "3a0b777776b39f6ad54786466628f65a"),
    (87, "79c417c83383778cf082ebc1bc530a05"),
    (88, "d406d6141c28495432cb9624dc0e59bd"),
    (89, "9931ab807db5b143285075c76cea27a7"),
    (90, "f48d69ccbfa8c7b04656f140e766c0e2"),
    (91, "4dd000dbeca7925a4029346ae710f299"),
    (92, "98344d9d63d13005809287578321b701"),
    (93, "682dba10de60d0d378a7115b4549c60b"),
    (94, "ba6331b16b00f69eeeb5cb0c32bb2843"),
    (95, "69bbd1d9f50ca07016e0e3b258f39d62"),
    (96, "59ff01ede4878648d71eac2083f0aaaa"),
    (97, "4bcc6471e4d0756f75ade11e7ef51b7c"),
    (98, "439421f166400e511440303a50a273fb"),
    (99, "bfdf73e18aee85007d704f1056ebd4c7"),
    (100, "7d2226122d2c8a37ef6de11ff62a6f57"),
    (101, "1cdf80964a39b5236af33296f003342e"),
    (102, "3f29fa5ae1361e792759034748b274c2"),
    (103, "9f7b52a7dea3f0de1c4de0fbd154e225"),
    (104, "4682612362b879716a96c371e7dad4eb"),
    (105, "165684c2e695cb4a3cae4edc8a3fc0fd"),
    (106, "b7921619279c910a532c2101bfa01672"),
    (107, "3bec5abb17b13aac03883516e326081e"),
    (108, "daac9b00ae252eb90d1e292f9dbbe4bd"),
    (109, "edc6c350e145d641e76b474d5601d392"),
    (110, "5e3d90cd6a40134e3127341d91539e2c"),
    (111, "48fee46ea27e596936583f534903f463"),
    (112, "8796c1d085666e55b84773e4654796c3"),
    (113, "eccce0c33bd172902c9e8fed205283f6"),
    (114, "5b8c242a473e4d59b7ff5d50f4986aa5"),
    (115, "57e05d8ac34e4b6538fd59ab458d6023"),
    (116, "0bb46088776ffc70a00bd567c5199bae"),
    (117, "b7c8d641de1097d882ace2069d40b5ee"),
    (118, "bb6983cb1287a32a49a4f08878952f1a"),
    (119, "3b82d8d72d9c01305ce57aced1df7d15"),
    (120, "b44394226d726eb06d133c8206c11f01"),
    (121, "f3240469d3d50e78bcfed9ba1592b5aa"),
    (122, "b6c6b40ee4f5b2af50c11c2dad317d9b"),
    (123, "659f69a75029bc386633e8983b3eb6f6"),
    (124, "80284a58571003a82176488ed8ef5580"),
    (125, "b3b763daa9c75372803108daac3b02f5"),
    (126, "1177beec82e42ae72bd3e93df3487f7e"),
    (127, "86ceb425c479f184474f31b6f2485557"),
    (128, "c9baaad9c6a72af721a7148d59576050"),
    (129, "25d2c5b9ff3d8f56ba16489b7a0b6f34"),
    (130, "4273b33664a9d899d5cd513dc29190d6"),
    (1024, "1c9e864044edba01cac811bc25260739"),
    (2048, "57fcb9b356a3a8c624a6b3f89b1319a7"),
    (18432, "c2318cae34309e8e56215ef69e246fa1"),
];

#[test]
fn one_shot_digests_match_hashlib() {
    for (n, want) in VECTORS {
        assert_eq!(hex(Md5::digest(&message(n))), want, "md5 of {n} bytes");
    }
}

#[test]
fn streamed_digests_match_hashlib() {
    for (n, want) in VECTORS {
        let data = message(n);
        for piece in [1usize, 7, 55, 56, 64, 65] {
            let mut ctx = Md5::new();
            for chunk in data.chunks(piece) {
                ctx.update(chunk);
            }
            assert_eq!(
                hex(ctx.finalize()),
                want,
                "md5 of {n} bytes fed {piece} at a time"
            );
        }
    }
}
